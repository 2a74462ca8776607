"""1000Genome benchmark: a scientific workflow on genomic variant data (paper Section 5).

The workflow identifies mutational overlaps using data from the 1000 Genomes
project.  It consists of five task types in three phases::

    individuals (N parallel)                          -- parse a chunk of the input VCF
    [ individuals_merge | sifting ]  (parallel)       -- merge chunks / compute SIFT scores
    [ mutation_overlap x P | frequency x P ] (parallel maps over populations)

Parameters follow the paper: ``M = 1250`` lines of the variant file, ``N = 5``
parallel ``individuals`` functions, and ``P = 6`` populations, giving 19
function executions per workflow invocation and a maximum parallelism of 12.

The real 1000 Genomes data is not redistributable in this environment, so a
synthetic variant file with the same structure (positions, alleles, individual
genotype columns) is generated deterministically; the compute cost of the
paper-scale inputs is charged through ``ctx.compute``.  Simulated cost comes
only from ``ctx.compute``, so each distinct chunk is parsed once per process
and its summary counts are memoized.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from ..core.builder import DataItem, FunctionDataSpec
from ..core.definition import WorkflowDefinition
from ..core.wfdnet import ResourceAnnotation
from ..faas.benchmark import WorkflowBenchmark
from ..sim.invocation import FunctionSpec, InvocationContext
from ..sim.rng import derive_stream_seed

#: The super-populations of the 1000 Genomes project used by the paper (P = 6).
POPULATIONS = ("AFR", "AMR", "EAS", "EUR", "SAS", "ALL")

#: Size of the full variant input staged in object storage (Table 4: 273.54 MB).
INPUT_BYTES = 273_000_000
#: Size of one parsed-chunk result uploaded by an individuals function.
CHUNK_RESULT_BYTES = 600_000
#: Size of the merged result and the SIFT-score table.
MERGED_BYTES = 2_500_000
SIFTED_BYTES = 350_000

#: Abstract compute cost (full-vCPU seconds) per processed input line / item.
_INDIVIDUALS_WORK_PER_LINE = 0.34
_MERGE_WORK_PER_CHUNK = 8.0
_SIFTING_WORK_PER_LINE = 0.036
_OVERLAP_WORK_PER_POPULATION = 65.0
_FREQUENCY_WORK_PER_POPULATION = 52.0


@lru_cache(maxsize=1024)
def _variant_counts(chunk_id: int, lines: int) -> Tuple[int, int, int, float]:
    """Summarise a deterministic chunk of synthetic variant records.

    Returns ``(count, rare, overlapping, af_sum)``: the number of variants,
    those with allele frequency below 0.05, those with ``ref != alt`` and
    frequency above 0.1, and the sum of their allele frequencies.
    """
    frequencies: List[float] = []
    rare = overlapping = 0
    state = (chunk_id + 1) * 48271 % (2**31)
    for _ in range(lines):
        state = (16807 * state) % (2**31 - 1)
        af = (state % 1000) / 1000.0
        frequencies.append(af)
        rare += af < 0.05
        overlapping += state % 4 != (state // 4) % 4 and af > 0.1
    return len(frequencies), rare, overlapping, sum(frequencies)


def _population_chunk(population: str, modulus: int) -> int:
    """A stable synthetic chunk id for ``population`` (independent of PYTHONHASHSEED)."""
    return derive_stream_seed(0, f"genome.population:{population}") % modulus


# --------------------------------------------------------------------- handlers
def individuals_handler(ctx: InvocationContext, chunk: Dict[str, object]) -> Dict[str, object]:
    """Parse one chunk of the variant file and upload the per-individual data."""
    chunk_id = int(chunk.get("chunk_id", 0))
    lines = int(chunk.get("lines", 250))
    input_key = str(chunk.get("input_key", "genome/input.vcf"))

    if ctx.object_exists(input_key):
        ctx.download(input_key)
    variant_count, rare_count, _, _ = _variant_counts(chunk_id, min(lines, 200))
    ctx.compute(_INDIVIDUALS_WORK_PER_LINE * lines)

    result_key = f"genome/individuals-{ctx.invocation_id}-{chunk_id}"
    ctx.upload(result_key, CHUNK_RESULT_BYTES)
    return {
        "chunk_id": chunk_id,
        "lines": lines,
        "result_key": result_key,
        "variant_count": variant_count,
        "rare_variant_count": rare_count,
    }


def individuals_merge_handler(
    ctx: InvocationContext, chunks: List[Dict[str, object]]
) -> Dict[str, object]:
    """Merge the per-chunk results into one table; emits the analysis work list."""
    for chunk in chunks:
        key = str(chunk.get("result_key", ""))
        if key and ctx.object_exists(key):
            ctx.download(key)
    total_variants = sum(int(chunk.get("variant_count", 0)) for chunk in chunks)
    total_rare = sum(int(chunk.get("rare_variant_count", 0)) for chunk in chunks)
    ctx.compute(_MERGE_WORK_PER_CHUNK * max(1, len(chunks)))

    merged_key = f"genome/merged-{ctx.invocation_id}"
    ctx.upload(merged_key, MERGED_BYTES)
    return {
        "merged_key": merged_key,
        "total_variants": total_variants,
        "total_rare_variants": total_rare,
        "populations": [
            {"population": population, "merged_key": merged_key}
            for population in POPULATIONS
        ],
    }


def sifting_handler(ctx: InvocationContext, chunks: List[Dict[str, object]]) -> Dict[str, object]:
    """Compute SIFT (Sorting Intolerant From Tolerant) scores for all variants."""
    total_lines = sum(int(chunk.get("lines", 0)) for chunk in chunks)
    ctx.compute(_SIFTING_WORK_PER_LINE * max(1, total_lines))
    sifted_key = f"genome/sifted-{ctx.invocation_id}"
    ctx.upload(sifted_key, SIFTED_BYTES)
    return {"sifted_key": sifted_key, "scored_lines": total_lines}


def mutation_overlap_handler(ctx: InvocationContext, item: Dict[str, object]) -> Dict[str, object]:
    """Measure the overlap in SNP variants for one population."""
    population = str(item.get("population", "ALL"))
    merged_key = str(item.get("merged_key", f"genome/merged-{ctx.invocation_id}"))
    sifted_key = f"genome/sifted-{ctx.invocation_id}"
    for key in (merged_key, sifted_key):
        if key and ctx.object_exists(key):
            ctx.download(key)
    _, _, overlapping, _ = _variant_counts(_population_chunk(population, 97), 150)
    ctx.compute(_OVERLAP_WORK_PER_POPULATION)
    result_key = f"genome/overlap-{ctx.invocation_id}-{population}"
    ctx.upload(result_key, 80_000)
    return {"population": population, "kind": "mutation_overlap", "overlap": overlapping,
            "result_key": result_key}


def frequency_handler(ctx: InvocationContext, item: Dict[str, object]) -> Dict[str, object]:
    """Measure the frequency of overlapping mutations for one population."""
    population = str(item.get("population", "ALL"))
    merged_key = str(item.get("merged_key", f"genome/merged-{ctx.invocation_id}"))
    if merged_key and ctx.object_exists(merged_key):
        ctx.download(merged_key)
    count, _, _, af_sum = _variant_counts(_population_chunk(population, 89), 150)
    frequency = af_sum / max(1, count)
    ctx.compute(_FREQUENCY_WORK_PER_POPULATION)
    result_key = f"genome/frequency-{ctx.invocation_id}-{population}"
    ctx.upload(result_key, 80_000)
    return {"population": population, "kind": "frequency", "mean_frequency": round(frequency, 4),
            "result_key": result_key}


def _prepare(platform) -> None:
    platform.object_storage.put_object("genome/input.vcf", INPUT_BYTES)


def build_definition() -> WorkflowDefinition:
    return WorkflowDefinition.from_dict(
        {
            "root": "individuals_phase",
            "states": {
                "individuals_phase": {
                    "type": "map",
                    "array": "chunks",
                    "root": "individuals",
                    "next": "aggregate_phase",
                    "states": {"individuals": {"type": "task", "func_name": "individuals"}},
                },
                "aggregate_phase": {
                    "type": "parallel",
                    "next": "analysis_phase",
                    "branches": [
                        {
                            "name": "merge_branch",
                            "root": "merge_task",
                            "states": {
                                "merge_task": {"type": "task", "func_name": "individuals_merge"}
                            },
                        },
                        {
                            "name": "sifting_branch",
                            "root": "sifting_task",
                            "states": {"sifting_task": {"type": "task", "func_name": "sifting"}},
                        },
                    ],
                },
                "analysis_phase": {
                    "type": "parallel",
                    "branches": [
                        {
                            "name": "overlap_branch",
                            "root": "overlap_map",
                            "states": {
                                "overlap_map": {
                                    "type": "map",
                                    "array": "populations",
                                    "root": "overlap_task",
                                    "states": {
                                        "overlap_task": {
                                            "type": "task",
                                            "func_name": "mutation_overlap",
                                        }
                                    },
                                }
                            },
                        },
                        {
                            "name": "frequency_branch",
                            "root": "frequency_map",
                            "states": {
                                "frequency_map": {
                                    "type": "map",
                                    "array": "populations",
                                    "root": "frequency_task",
                                    "states": {
                                        "frequency_task": {
                                            "type": "task",
                                            "func_name": "frequency",
                                        }
                                    },
                                }
                            },
                        },
                    ],
                },
            },
        },
        name="genome_1000",
    )


def create_benchmark(
    lines: int = 1250,
    individuals_jobs: int = 5,
    populations: int = 6,
    memory_mb: int = 2048,
) -> WorkflowBenchmark:
    """The 1000Genome benchmark (paper defaults: M=1250 lines, N=5 jobs, P=6 populations)."""
    if populations < 1 or populations > len(POPULATIONS):
        raise ValueError(f"populations must be between 1 and {len(POPULATIONS)}")
    definition = build_definition()
    functions = {
        "individuals": FunctionSpec("individuals", individuals_handler, cold_init_s=0.8),
        "individuals_merge": FunctionSpec("individuals_merge", individuals_merge_handler, cold_init_s=0.6),
        "sifting": FunctionSpec("sifting", sifting_handler, cold_init_s=0.6),
        "mutation_overlap": FunctionSpec("mutation_overlap", mutation_overlap_handler, cold_init_s=0.8),
        "frequency": FunctionSpec("frequency", frequency_handler, cold_init_s=0.8),
    }
    per_chunk_bytes = INPUT_BYTES // individuals_jobs
    data_spec = {
        "individuals": FunctionDataSpec(
            reads=[DataItem("input_vcf", ResourceAnnotation.OBJECT_STORAGE, INPUT_BYTES)],
            writes=[DataItem("chunk_results", ResourceAnnotation.OBJECT_STORAGE,
                             CHUNK_RESULT_BYTES * individuals_jobs)],
        ),
        "individuals_merge": FunctionDataSpec(
            reads=[DataItem("chunk_results", ResourceAnnotation.REFERENCE, 0)],
            writes=[DataItem("merged", ResourceAnnotation.OBJECT_STORAGE, MERGED_BYTES)],
        ),
        "sifting": FunctionDataSpec(
            reads=[DataItem("chunk_results", ResourceAnnotation.TRANSPARENT, 0)],
            writes=[DataItem("sifted", ResourceAnnotation.OBJECT_STORAGE, SIFTED_BYTES)],
        ),
        "mutation_overlap": FunctionDataSpec(
            reads=[DataItem("merged", ResourceAnnotation.REFERENCE, 0)],
            writes=[DataItem("overlap_results", ResourceAnnotation.OBJECT_STORAGE, 80_000 * populations)],
        ),
        "frequency": FunctionDataSpec(
            reads=[DataItem("merged", ResourceAnnotation.REFERENCE, 0)],
            writes=[DataItem("frequency_results", ResourceAnnotation.OBJECT_STORAGE, 80_000 * populations)],
        ),
    }

    def make_input(index: int) -> Dict[str, object]:
        lines_per_chunk = max(1, lines // individuals_jobs)
        return {
            "chunks": [
                {"chunk_id": chunk_id, "lines": lines_per_chunk, "input_key": "genome/input.vcf"}
                for chunk_id in range(individuals_jobs)
            ]
        }

    benchmark = WorkflowBenchmark(
        name="genome_1000",
        definition=definition,
        functions=functions,
        memory_mb=memory_mb,
        prepare=_prepare,
        make_input=make_input,
        array_sizes={"chunks": individuals_jobs, "populations": populations},
        data_spec=data_spec,
        description="1000 Genomes mutational-overlap scientific workflow",
        category="application",
    )
    return benchmark


def create_individuals_scaling_benchmark(
    individuals_jobs: int, lines: int = 1250, memory_mb: int = 2048
) -> WorkflowBenchmark:
    """Strong-scaling variant used by Figure 14b: only the ``individuals`` phase.

    The paper's E8 experiment executes the ``6101.1000-genome-individuals``
    workflow with growing job counts while keeping the input size fixed, so
    each job processes a smaller chunk.
    """
    definition = WorkflowDefinition.from_dict(
        {
            "root": "individuals_phase",
            "states": {
                "individuals_phase": {
                    "type": "map",
                    "array": "chunks",
                    "root": "individuals",
                    "states": {"individuals": {"type": "task", "func_name": "individuals"}},
                }
            },
        },
        name=f"genome_individuals_{individuals_jobs}",
    )
    functions = {
        "individuals": FunctionSpec("individuals", individuals_handler, cold_init_s=0.8),
    }

    def make_input(index: int) -> Dict[str, object]:
        lines_per_chunk = max(1, lines // individuals_jobs)
        return {
            "chunks": [
                {"chunk_id": chunk_id, "lines": lines_per_chunk, "input_key": "genome/input.vcf"}
                for chunk_id in range(individuals_jobs)
            ]
        }

    return WorkflowBenchmark(
        name=f"genome_individuals_{individuals_jobs}",
        definition=definition,
        functions=functions,
        memory_mb=memory_mb,
        prepare=_prepare,
        make_input=make_input,
        array_sizes={"chunks": individuals_jobs},
        data_spec={},
        description="Strong-scaling slice of the 1000Genome workflow (individuals phase only)",
        category="application",
    )
