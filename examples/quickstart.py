#!/usr/bin/env python3
"""Quickstart: define a workflow, run it on three simulated clouds, compare results.

This example builds a small image-thumbnailing workflow from scratch using the
platform-agnostic definition language, deploys it to the simulated AWS, Google
Cloud, and Azure platforms, and prints runtime, critical path, orchestration
overhead, cold starts, and cost for each.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.definition import WorkflowDefinition
from repro.faas.benchmark import WorkflowBenchmark
from repro.faas.deployment import Deployment
from repro.faas.experiment import run_benchmark
from repro.faas.workload import WorkloadSpec
from repro.sim.invocation import FunctionSpec, InvocationContext


# 1. Implement the workflow's functions.  Functions receive an invocation
#    context (storage, NoSQL, compute accounting) plus the payload of the
#    previous phase and return the payload for the next phase.
def list_images(ctx: InvocationContext, payload: dict) -> dict:
    """List the images to be processed and stage them in object storage."""
    count = int(payload.get("count", 6))
    images = []
    for index in range(count):
        key = f"gallery/image-{index}.jpg"
        ctx.upload(key, 2_000_000)  # 2 MB per source image
        images.append({"key": key, "index": index})
    ctx.compute(0.05)
    return {"images": images}


def make_thumbnail(ctx: InvocationContext, image: dict) -> dict:
    """Downscale one image (the map phase runs one invocation per image)."""
    source = ctx.download(image["key"])
    ctx.compute(0.4)  # decode + resize
    thumb_key = image["key"].replace("image-", "thumb-")
    ctx.upload(thumb_key, source.size_bytes // 20)
    return {"thumbnail": thumb_key, "index": image["index"]}


def build_index(ctx: InvocationContext, thumbnails: list) -> dict:
    """Aggregate the thumbnails into a gallery index."""
    ctx.compute(0.1)
    ctx.upload("gallery/index.json", 10_000)
    return {"thumbnails": sorted(t["thumbnail"] for t in thumbnails), "count": len(thumbnails)}


# 2. Describe the workflow with the platform-agnostic definition language.
DEFINITION = WorkflowDefinition.from_dict(
    {
        "root": "list_phase",
        "states": {
            "list_phase": {"type": "task", "func_name": "list_images", "next": "thumb_phase"},
            "thumb_phase": {
                "type": "map",
                "array": "images",
                "root": "thumb",
                "next": "index_phase",
                "states": {"thumb": {"type": "task", "func_name": "make_thumbnail"}},
            },
            "index_phase": {"type": "task", "func_name": "build_index"},
        },
    },
    name="thumbnail_gallery",
)


def build_benchmark() -> WorkflowBenchmark:
    """3. Bundle definition + functions + input generator into a benchmark."""
    return WorkflowBenchmark(
        name="thumbnail_gallery",
        definition=DEFINITION,
        functions={
            "list_images": FunctionSpec("list_images", list_images, cold_init_s=0.2),
            "make_thumbnail": FunctionSpec("make_thumbnail", make_thumbnail, cold_init_s=0.3),
            "build_index": FunctionSpec("build_index", build_index, cold_init_s=0.1),
        },
        memory_mb=512,
        make_input=lambda index: {"count": 6},
        array_sizes={"images": 6},
        description="Thumbnail a small image gallery with a parallel map phase",
    )


def main() -> None:
    benchmark = build_benchmark()

    print(f"Workflow '{benchmark.name}':")
    stats = benchmark.statistics()
    print(f"  functions per execution: {stats.num_functions}, "
          f"max parallelism: {stats.max_parallelism}, "
          f"critical path length: {stats.critical_path_length}\n")

    print(f"{'platform':<8} {'median runtime':>15} {'critical path':>15} "
          f"{'overhead':>10} {'cold starts':>12} {'cost / 1000 runs':>17}")
    for platform in ("aws", "gcp", "azure"):
        result = run_benchmark(benchmark, platform, seed=7,
                               workload=WorkloadSpec.burst(10))
        cost = result.cost.per_1000_executions.total_usd if result.cost else 0.0
        print(f"{platform:<8} {result.median_runtime:>13.2f} s {result.median_critical_path:>13.2f} s "
              f"{result.median_overhead:>8.2f} s {result.cold_start_fraction:>11.0%} "
              f"${cost:>15.4f}")

    # Platforms are identified by specs, so hypothetical variants run exactly
    # like the builtin clouds -- here: AWS with 3x slower cold starts.
    result = run_benchmark(benchmark, "aws:cold_start=x3", seed=7,
                           workload=WorkloadSpec.burst(10))
    print(f"\naws with 3x cold starts: median runtime {result.median_runtime:.2f} s")

    # A single invocation with full access to its outputs:
    from repro.sim.platforms import Platform, resolve_platform

    platform = Platform(resolve_platform("aws"), seed=7)
    deployment = Deployment.deploy(benchmark, platform)
    invocation = deployment.invoke_once("demo")
    print(f"\nSingle AWS invocation produced {invocation.output['count']} thumbnails, "
          f"{invocation.stats.state_transitions} state transitions.")


if __name__ == "__main__":
    main()
