"""MapReduce benchmark: the standard word-counting problem (paper Section 5).

Workflow structure::

    split --> map (N parallel mappers) --> shuffle --> reduce (M parallel reducers)

``split`` partitions the input text into ``N`` batches, each ``map`` function
counts word occurrences in its chunk, ``shuffle`` flattens the per-chunk counts
into one list per distinct word (the paper notes this extra function is forced
by the available workflow primitives), and ``M`` reducers sum the occurrences
of their word in parallel.

Default parameters follow the paper: ``N = 3`` mappers, ``W = 5000`` words
drawn from ``M = 5`` distinct words.  The functions perform the real word
counting on a synthetic corpus; the heavy-lifting equivalent on full-size data
is charged through ``ctx.compute``.  Simulated cost comes only from
``ctx.compute``, never from the real work, so the corpus is synthesised once
per distinct ``(total_words, num_chunks, seed)`` per process and memoized.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Dict, List, Tuple

from ..core.builder import DataItem, FunctionDataSpec, ResourceAnnotation
from ..core.definition import WorkflowDefinition
from ..faas.benchmark import WorkflowBenchmark
from ..sim.invocation import FunctionSpec, InvocationContext

#: The distinct words of the synthetic corpus (the paper uses M = 5).
WORDS = ("serverless", "workflow", "benchmark", "cloud", "function")

#: Abstract compute cost (full-vCPU seconds) per processed word.
_WORK_PER_WORD = 6e-5


@lru_cache(maxsize=64)
def _corpus_chunks(
    total_words: int, num_chunks: int, seed: int
) -> Tuple[Tuple[Tuple[str, ...], int], ...]:
    """Deterministically generate the corpus already partitioned into chunks.

    Each chunk is ``(words, upload_bytes)``; immutable, because the memo
    hands the same value to every invocation with this input.
    """
    words: List[str] = []
    state = seed * 2654435761 % (2**32) or 1
    for _ in range(total_words):
        state = (1103515245 * state + 12345) % (2**31)
        words.append(WORDS[state % len(WORDS)])
    chunk_size = max(1, (len(words) + num_chunks - 1) // num_chunks)
    chunks = (words[i : i + chunk_size] for i in range(0, len(words), chunk_size))
    return tuple((tuple(chunk), sum(len(w) + 1 for w in chunk)) for chunk in chunks)


# --------------------------------------------------------------------- handlers
def split_handler(ctx: InvocationContext, payload: Dict[str, object]) -> Dict[str, object]:
    """Partition the input text into chunks for the mappers."""
    total_words = int(payload.get("total_words", 5000))
    num_mappers = int(payload.get("num_mappers", 3))
    seed = int(payload.get("seed", 1))
    corpus_key = str(payload.get("corpus_key", "mapreduce/input.txt"))

    if ctx.object_exists(corpus_key):
        ctx.download(corpus_key)
    chunks = _corpus_chunks(total_words, num_mappers, seed)
    ctx.compute(_WORK_PER_WORD * total_words)
    for index, (_, upload_bytes) in enumerate(chunks):
        ctx.upload(f"mapreduce/chunk-{ctx.invocation_id}-{index}", upload_bytes)
    return {
        "chunks": [
            {"chunk_id": index, "words": list(words), "invocation": ctx.invocation_id}
            for index, (words, _) in enumerate(chunks)
        ]
    }


def map_handler(ctx: InvocationContext, chunk: Dict[str, object]) -> Dict[str, object]:
    """Count word occurrences in one chunk."""
    words = list(chunk.get("words", []))
    counts = dict(Counter(words))
    ctx.compute(_WORK_PER_WORD * 3 * max(1, len(words)))
    return {"chunk_id": chunk.get("chunk_id", 0), "counts": counts}


def shuffle_handler(ctx: InvocationContext, mapped: List[Dict[str, object]]) -> Dict[str, object]:
    """Group the per-chunk counts by word so reducers can run in parallel."""
    grouped: Dict[str, List[int]] = {}
    for entry in mapped:
        for word, count in dict(entry.get("counts", {})).items():
            grouped.setdefault(word, []).append(int(count))
    ctx.compute(_WORK_PER_WORD * 2 * sum(len(v) for v in grouped.values()) + 0.05)
    return {"groups": [{"word": word, "counts": counts} for word, counts in sorted(grouped.items())]}


def reduce_handler(ctx: InvocationContext, group: Dict[str, object]) -> Dict[str, object]:
    """Sum the occurrences of one word."""
    counts = [int(c) for c in group.get("counts", [])]
    ctx.compute(_WORK_PER_WORD * 10 * max(1, len(counts)) + 0.05)
    return {"word": group.get("word", ""), "total": sum(counts)}


def _prepare(platform) -> None:
    """Stage the input corpus in object storage (the paper's 0.02 MB download)."""
    platform.object_storage.put_object("mapreduce/input.txt", 20_000)


def build_definition() -> WorkflowDefinition:
    return WorkflowDefinition.from_dict(
        {
            "root": "split_phase",
            "states": {
                "split_phase": {"type": "task", "func_name": "split", "next": "map_phase"},
                "map_phase": {
                    "type": "map",
                    "array": "chunks",
                    "root": "mapper",
                    "next": "shuffle_phase",
                    "states": {"mapper": {"type": "task", "func_name": "map_words"}},
                },
                "shuffle_phase": {"type": "task", "func_name": "shuffle", "next": "reduce_phase"},
                "reduce_phase": {
                    "type": "map",
                    "array": "groups",
                    "root": "reducer",
                    "states": {"reducer": {"type": "task", "func_name": "reduce_words"}},
                },
            },
        },
        name="mapreduce",
    )


def create_benchmark(
    num_mappers: int = 3,
    total_words: int = 5000,
    memory_mb: int = 256,
) -> WorkflowBenchmark:
    """The MapReduce benchmark with the paper's default parameters."""
    definition = build_definition()
    functions = {
        "split": FunctionSpec("split", split_handler, cold_init_s=0.15),
        "map_words": FunctionSpec("map_words", map_handler, cold_init_s=0.15),
        "shuffle": FunctionSpec("shuffle", shuffle_handler, cold_init_s=0.15),
        "reduce_words": FunctionSpec("reduce_words", reduce_handler, cold_init_s=0.15),
    }
    data_spec = {
        "split": FunctionDataSpec(
            reads=[DataItem("input_text", ResourceAnnotation.OBJECT_STORAGE, 20_000)],
            writes=[DataItem("chunks", ResourceAnnotation.OBJECT_STORAGE, 40_000)],
        ),
        "map_words": FunctionDataSpec(
            reads=[DataItem("chunks", ResourceAnnotation.PAYLOAD, 20_000)],
            writes=[DataItem("counts", ResourceAnnotation.TRANSPARENT, 2_000)],
        ),
        "shuffle": FunctionDataSpec(
            reads=[DataItem("counts", ResourceAnnotation.TRANSPARENT, 2_000)],
            writes=[DataItem("groups", ResourceAnnotation.TRANSPARENT, 2_000)],
        ),
        "reduce_words": FunctionDataSpec(
            reads=[DataItem("groups", ResourceAnnotation.TRANSPARENT, 2_000)],
            writes=[DataItem("totals", ResourceAnnotation.TRANSPARENT, 500)],
        ),
    }

    def make_input(index: int) -> Dict[str, object]:
        return {
            "total_words": total_words,
            "num_mappers": num_mappers,
            "seed": index + 1,
            "corpus_key": "mapreduce/input.txt",
        }

    return WorkflowBenchmark(
        name="mapreduce",
        definition=definition,
        functions=functions,
        memory_mb=memory_mb,
        prepare=_prepare,
        make_input=make_input,
        array_sizes={"chunks": num_mappers, "groups": len(WORDS)},
        data_spec=data_spec,
        description="Word counting with parallel mappers and reducers",
        category="application",
    )
