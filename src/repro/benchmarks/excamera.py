"""ExCamera benchmark: fine-grained parallel video encoding (paper Section 5).

ExCamera (Fouladi et al., NSDI'17) encodes a video in parallel by splitting it
into chunks of ``N`` frames processed by ``T = M / N`` parallel workers, then
stitching the chunks together through a chain of decode/re-encode steps that
propagate the final decoder state from one chunk to the next.

Workflow structure used here (derived from the original description and the
vSwarm implementation)::

    vpxenc (T parallel)  --> decode (T parallel) --> reencode (T parallel) --> rebase

Defaults follow the paper: ``M = 30`` total frames, chunk size ``N = 6``,
yielding five parallel functions per map phase and 16 functions per execution,
with roughly 300 MB downloaded from object storage across the workflow.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.builder import DataItem, FunctionDataSpec, ResourceAnnotation
from ..core.definition import WorkflowDefinition
from ..faas.benchmark import WorkflowBenchmark
from ..sim.invocation import FunctionSpec, InvocationContext

#: Raw size of one chunk of the source video in object storage.
RAW_CHUNK_BYTES = 40_000_000
#: Size of the encoded output of one chunk (key frame + interframes).
ENCODED_CHUNK_BYTES = 3_000_000
#: Size of a decoder final state uploaded between stages.
STATE_BYTES = 450_000

#: Abstract compute cost per frame for each stage (full-vCPU seconds).
_ENCODE_WORK_PER_FRAME = 0.50
_DECODE_WORK_PER_FRAME = 0.18
_REENCODE_WORK_PER_FRAME = 0.40
_REBASE_WORK_PER_CHUNK = 0.35


def _chunk_key(invocation: str, index: int, stage: str) -> str:
    return f"excamera/{stage}-{invocation}-chunk{index}"


# --------------------------------------------------------------------- handlers
def vpxenc_handler(ctx: InvocationContext, chunk: Dict[str, object]) -> Dict[str, object]:
    """Encode one chunk independently: one key frame plus N-1 interframes."""
    index = int(chunk.get("chunk_id", 0))
    frames = int(chunk.get("frames", 6))
    source_key = str(chunk.get("source_key", ""))
    if source_key and ctx.object_exists(source_key):
        ctx.download(source_key)
    ctx.compute(_ENCODE_WORK_PER_FRAME * frames)
    encoded_key = _chunk_key(ctx.invocation_id, index, "encoded")
    ctx.upload(encoded_key, ENCODED_CHUNK_BYTES)
    return {
        "chunk_id": index,
        "frames": frames,
        "encoded_key": encoded_key,
        "key_frames": 1,
        "interframes": frames - 1,
    }


def decode_handler(ctx: InvocationContext, chunk: Dict[str, object]) -> Dict[str, object]:
    """Decode the chunk again to compute its final decoder state."""
    index = int(chunk.get("chunk_id", 0))
    frames = int(chunk.get("frames", 6))
    encoded_key = str(chunk.get("encoded_key", ""))
    if encoded_key and ctx.object_exists(encoded_key):
        ctx.download(encoded_key)
    ctx.compute(_DECODE_WORK_PER_FRAME * frames)
    state_key = _chunk_key(ctx.invocation_id, index, "state")
    ctx.upload(state_key, STATE_BYTES)
    result = dict(chunk)
    result["state_key"] = state_key
    return result


def reencode_handler(ctx: InvocationContext, chunk: Dict[str, object]) -> Dict[str, object]:
    """Re-encode the chunk's interframes against the previous chunk's final state."""
    index = int(chunk.get("chunk_id", 0))
    frames = int(chunk.get("frames", 6))
    encoded_key = str(chunk.get("encoded_key", ""))
    state_key = str(chunk.get("state_key", ""))
    for key in (encoded_key, state_key):
        if key and ctx.object_exists(key):
            ctx.download(key)
    ctx.compute(_REENCODE_WORK_PER_FRAME * max(1, frames - 1))
    rebased_key = _chunk_key(ctx.invocation_id, index, "rebased")
    ctx.upload(rebased_key, ENCODED_CHUNK_BYTES)
    result = dict(chunk)
    result["rebased_key"] = rebased_key
    result["interframes"] = max(0, frames - 2)
    return result


def rebase_handler(ctx: InvocationContext, chunks: List[Dict[str, object]]) -> Dict[str, object]:
    """Stitch the re-encoded chunks into the final video."""
    total_frames = sum(int(chunk.get("frames", 0)) for chunk in chunks)
    for chunk in chunks:
        key = str(chunk.get("rebased_key", ""))
        if key and ctx.object_exists(key):
            ctx.download(key)
    ctx.compute(_REBASE_WORK_PER_CHUNK * max(1, len(chunks)))
    output_key = f"excamera/output-{ctx.invocation_id}.ivf"
    ctx.upload(output_key, ENCODED_CHUNK_BYTES * max(1, len(chunks)))
    return {
        "output_key": output_key,
        "total_frames": total_frames,
        "chunks": len(chunks),
    }


def _prepare_factory(num_chunks: int):
    def _prepare(platform) -> None:
        for index in range(num_chunks):
            platform.object_storage.put_object(f"excamera/raw-chunk{index}", RAW_CHUNK_BYTES)
    return _prepare


def build_definition() -> WorkflowDefinition:
    return WorkflowDefinition.from_dict(
        {
            "root": "encode_phase",
            "states": {
                "encode_phase": {
                    "type": "map",
                    "array": "chunks",
                    "root": "vpxenc",
                    "next": "decode_phase",
                    "states": {"vpxenc": {"type": "task", "func_name": "vpxenc"}},
                },
                "decode_phase": {
                    "type": "map",
                    "array": "chunks",
                    "root": "decode",
                    "next": "reencode_phase",
                    "states": {"decode": {"type": "task", "func_name": "decode"}},
                },
                "reencode_phase": {
                    "type": "map",
                    "array": "chunks",
                    "root": "reencode",
                    "next": "rebase_phase",
                    "states": {"reencode": {"type": "task", "func_name": "reencode"}},
                },
                "rebase_phase": {"type": "task", "func_name": "rebase"},
            },
        },
        name="excamera",
    )


def create_benchmark(
    total_frames: int = 30,
    chunk_frames: int = 6,
    memory_mb: int = 256,
) -> WorkflowBenchmark:
    """The ExCamera benchmark with the paper's default parameters."""
    if total_frames % chunk_frames != 0:
        raise ValueError("total_frames must be a multiple of chunk_frames")
    num_chunks = total_frames // chunk_frames
    definition = build_definition()
    functions = {
        "vpxenc": FunctionSpec("vpxenc", vpxenc_handler, cold_init_s=0.5),
        "decode": FunctionSpec("decode", decode_handler, cold_init_s=0.4),
        "reencode": FunctionSpec("reencode", reencode_handler, cold_init_s=0.5),
        "rebase": FunctionSpec("rebase", rebase_handler, cold_init_s=0.4),
    }
    data_spec = {
        "vpxenc": FunctionDataSpec(
            reads=[DataItem("raw_chunks", ResourceAnnotation.OBJECT_STORAGE, RAW_CHUNK_BYTES * num_chunks)],
            writes=[DataItem("encoded", ResourceAnnotation.OBJECT_STORAGE, ENCODED_CHUNK_BYTES * num_chunks)],
        ),
        "decode": FunctionDataSpec(
            reads=[DataItem("encoded", ResourceAnnotation.OBJECT_STORAGE, ENCODED_CHUNK_BYTES * num_chunks)],
            writes=[DataItem("states", ResourceAnnotation.OBJECT_STORAGE, STATE_BYTES * num_chunks)],
        ),
        "reencode": FunctionDataSpec(
            reads=[
                DataItem("encoded", ResourceAnnotation.OBJECT_STORAGE, ENCODED_CHUNK_BYTES * num_chunks),
                DataItem("states", ResourceAnnotation.OBJECT_STORAGE, STATE_BYTES * num_chunks),
            ],
            writes=[DataItem("rebased", ResourceAnnotation.OBJECT_STORAGE, ENCODED_CHUNK_BYTES * num_chunks)],
        ),
        "rebase": FunctionDataSpec(
            reads=[DataItem("rebased", ResourceAnnotation.OBJECT_STORAGE, ENCODED_CHUNK_BYTES * num_chunks)],
            writes=[DataItem("output", ResourceAnnotation.OBJECT_STORAGE, ENCODED_CHUNK_BYTES * num_chunks)],
        ),
    }

    def make_input(index: int) -> Dict[str, object]:
        return {
            "chunks": [
                {
                    "chunk_id": chunk_id,
                    "frames": chunk_frames,
                    "source_key": f"excamera/raw-chunk{chunk_id}",
                }
                for chunk_id in range(num_chunks)
            ]
        }

    return WorkflowBenchmark(
        name="excamera",
        definition=definition,
        functions=functions,
        memory_mb=memory_mb,
        prepare=_prepare_factory(num_chunks),
        make_input=make_input,
        array_sizes={"chunks": num_chunks},
        data_spec=data_spec,
        description="Parallel video encoding with chunk-state rebasing (ExCamera)",
        category="application",
    )
