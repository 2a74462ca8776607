"""A campaign document is a pure function of (spec, seed), never of the process.

Builtin string hashes are salted per interpreter (``PYTHONHASHSEED``) and
worker pools may fork or spawn, so each combination runs the same small
campaign in a fresh interpreter.  The application benchmarks are the ones
with handler-side data synthesis (per-process memos, population seeds).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
import multiprocessing
import sys

from repro.benchmarks import genome
from repro.faas.campaign import CampaignSpec, run_campaign

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1], force=True)
    spec = CampaignSpec(
        benchmarks=("genome_1000", "ml", "mapreduce"), platforms=("aws",),
        seeds=(0,), workloads=("burst:burst_size=2",),
    )
    document = run_campaign(spec, workers=2).to_dict(include_results=True)
    chunks = [genome._population_chunk(p, 97) for p in genome.POPULATIONS]
    print(json.dumps({"campaign": document, "population_chunks": chunks}, sort_keys=True))
"""


def run_in_fresh_interpreter(tmp_path, hash_seed: str, start_method: str) -> str:
    script = tmp_path / "campaign_once.py"
    script.write_text(SCRIPT)
    completed = subprocess.run(
        [sys.executable, str(script), start_method],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed},
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip().splitlines()[-1]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("process_determinism")
    return {
        (hash_seed, start_method): run_in_fresh_interpreter(tmp_path, hash_seed, start_method)
        for hash_seed in ("0", "12345")
        for start_method in ("fork", "spawn")
    }


def test_documents_are_byte_identical_across_hash_seeds_and_start_methods(documents):
    reference = documents[("0", "fork")]
    assert len(json.loads(reference)["campaign"]["cells"]) == 3
    for combination, document in documents.items():
        assert document == reference, f"campaign document differs under {combination}"


def test_population_seeds_match_the_test_process(documents):
    from repro.benchmarks import genome

    local = [genome._population_chunk(p, 97) for p in genome.POPULATIONS]
    for document in documents.values():
        assert json.loads(document)["population_chunks"] == local
