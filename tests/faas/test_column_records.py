"""Grid records and cache entries carry one encoding: the column layout.

A freshly executed cell leaves its pool worker as the
``encode_document(result_to_columns(...))`` text of its result.  The grid
logs that text as the record's ``result``, the cache entry splices in the
same text, and ``merge_run`` decodes it with ``result_from_columns``.  The
oracle is the row path these replaced: ``execute_job_inline`` (the row
document) and ``run_campaign(workers=1)``.
"""

import json

import pytest

from repro.benchmarks.registry import ALL_BENCHMARKS
from repro.faas.campaign import (
    CampaignSpec, run_campaign, _ENTRY_LAYOUT, _cache_path, execute_job_inline,
)
from repro.faas.grid import GridRun, merge_run, run_grid_worker
from repro.faas import campaign as campaign_module
from repro.faas.results import (
    encode_document, record_line, result_from_columns, result_to_columns,
)

EVERY_CELL = CampaignSpec(
    benchmarks=tuple(sorted(ALL_BENCHMARKS)),
    platforms=("aws", "gcp", "azure", "hpc"),
    seeds=(0,),
    workloads=("burst:burst_size=2",),
)

SMALL = CampaignSpec(
    benchmarks=("function_chain", "storage_io"),
    platforms=("aws", "azure"),
    seeds=(0, 1),
    workloads=("burst:burst_size=2",),
)


def records(run):
    return [record for shard in range(run.shard_count)
            for record in run.iter_shard_records(shard)]


def including_results(campaign) -> str:
    return json.dumps(campaign.to_dict(include_results=True), sort_keys=True)


def test_a_pooled_grid_logs_the_column_text_of_the_row_path(tmp_path):
    """Every benchmark on every platform kind: the 2-worker grid merges to
    the serial campaign's full document, and each record's ``result`` is the
    column encoding of the row document ``execute_job_inline`` returns."""
    run = GridRun.create(EVERY_CELL, tmp_path / "run", shard_count=2)
    report = run_grid_worker(run, workers=2, worker_id="w")
    assert report.executed == len(EVERY_CELL.expand()) and report.failed == 0
    assert including_results(merge_run(run)) == \
        including_results(run_campaign(EVERY_CELL, workers=1))
    logged = {record["fingerprint"]: record["result"] for record in records(run)}
    assert len(logged) == len(EVERY_CELL.expand())
    for job in EVERY_CELL.expand():
        oracle = json.loads(encode_document(result_to_columns(execute_job_inline(job))))
        assert logged[job.fingerprint()] == oracle, job.cell_key


def test_a_grid_worker_splices_its_records_into_the_cache(tmp_path, monkeypatch):
    """With a ``cache_dir`` the coordinator writes each entry around the
    worker's text, encoding no result itself; a later campaign is served
    every cell from those entries, identical to the merged grid."""
    cache = tmp_path / "cache"
    run = GridRun.create(SMALL, tmp_path / "run", shard_count=2)
    encoded = []
    real_encode = campaign_module.encode_document

    def counting_encode(document):
        encoded.append(document)
        return real_encode(document)

    # The pool forks after this patch, but a child's calls land in the
    # child's copy of ``encoded``: the list counts the coordinator's only.
    monkeypatch.setattr(campaign_module, "encode_document", counting_encode)
    assert run_grid_worker(run, workers=2, cache_dir=cache).executed == 8
    assert encoded == []
    lines = {json.loads(line)["fingerprint"]: line
             for path in run.backend.results_dir.glob("*.jsonl")
             for line in path.read_text().splitlines()}
    for job in SMALL.expand():
        record = json.loads(lines[job.fingerprint()])
        text = encode_document(record["result"])
        assert ', "result": ' + text + ', ' in lines[job.fingerprint()]
        assert _cache_path(cache, job).read_text() == record_line({
            "version": _ENTRY_LAYOUT, "fingerprint": job.fingerprint(), "job": job.to_dict(),
        }, text)
    served = run_campaign(SMALL, workers=1, cache_dir=cache)
    assert served.cache_hits == 8
    assert [cell["result"] for cell in served.to_dict(include_results=True)["cells"]] == \
        [cell["result"] for cell in merge_run(run).to_dict(include_results=True)["cells"]]


@pytest.mark.parametrize("entry", ["open", "create"])
def test_a_version_1_run_directory_is_refused(tmp_path, entry):
    """Version-1 records hold row documents, which this merge does not read."""
    run = GridRun.create(SMALL, tmp_path / "run", shard_count=2)
    manifest_path = run.run_dir / GridRun.MANIFEST
    manifest = json.loads(manifest_path.read_text())
    manifest["grid_version"] = 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="grid_version 1; this build speaks 2"):
        if entry == "open":
            GridRun.open(tmp_path / "run")
        else:
            GridRun.create(SMALL, tmp_path / "run", shard_count=2)


def truncated(record):
    """``record`` with a packed float column short of its last 4 base64 characters."""
    broken = json.loads(json.dumps(record))
    column = broken["result"]["functions"]["start"]
    assert set(column) == {"f8"}
    column["f8"] = column["f8"][:-4]
    return broken


@pytest.fixture
def executed(tmp_path):
    cache = tmp_path / "cache"
    run = GridRun.create(SMALL, tmp_path / "run", shard_count=1)
    run_grid_worker(run, workers=1, cache_dir=cache)
    return run, cache


def clone_with(source, directory, logged):
    clone = GridRun.create(source.spec, directory, shard_count=source.shard_count)
    clone.backend.append_records(0, "clone", [encode_document(record) for record in logged])
    return clone


def test_a_truncated_packed_column_is_skipped_for_a_duplicate(executed, tmp_path):
    run, _ = executed
    logged = records(run)
    with pytest.raises(ValueError):
        result_from_columns(truncated(logged[0])["result"])
    clone = clone_with(run, tmp_path / "dup", [truncated(logged[0])] + logged)
    assert including_results(merge_run(clone)) == including_results(merge_run(run))


def test_a_truncated_packed_column_is_skipped_for_the_cache(executed, tmp_path):
    run, cache = executed
    logged = records(run)
    clone = clone_with(run, tmp_path / "cached", [truncated(logged[0])] + logged[1:])
    with pytest.raises(ValueError, match="incomplete"):
        merge_run(clone)
    merged = merge_run(clone, cache_dir=cache)
    from_cache = {cell.job.fingerprint(): cell.from_cache for cell in merged.cells}
    assert from_cache.pop(logged[0]["fingerprint"]) is True
    assert not any(from_cache.values())
    assert [cell["result"] for cell in merged.to_dict(include_results=True)["cells"]] == \
        [cell["result"] for cell in merge_run(run).to_dict(include_results=True)["cells"]]
