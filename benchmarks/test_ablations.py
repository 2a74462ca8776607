"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not figures from the paper: they quantify how much each mechanism of
the simulated substrate contributes to the reproduced behaviour, so that the
calibration documented in EXPERIMENTS.md is auditable.

* Azure's task-hub staging / checkpointing of storage traffic (the mechanism
  behind Figures 8 and 9a) -- removing it collapses the Azure overhead on the
  data-heavy Video Analysis benchmark.
* Google Cloud's scale-out cap (the mechanism behind Table 5's cold-start
  fractions and Figure 11) -- raising it to AWS-like behaviour pushes GCP's
  cold starts towards 100 %.
* The cold-start initialisation charged inside the function body (the
  mechanism behind Figure 12) -- removing it erases the warm/cold critical
  path gap on AWS.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import BURST_SIZE, SEED

from repro.benchmarks import get_benchmark
from repro.faas import Deployment, TriggerConfig, BurstTrigger, summarize
from repro.sim.platforms import Platform, resolve_platform


def _run_on_profile(benchmark_name: str, profile, burst_size: int, seed: int):
    benchmark = get_benchmark(benchmark_name)
    platform = Platform(profile, seed=seed)
    deployment = Deployment.deploy(benchmark, platform)
    ids = BurstTrigger(TriggerConfig(burst_size=burst_size)).fire(deployment)
    measurements = [deployment.measurement(i) for i in ids]
    return summarize(benchmark_name, profile.name, measurements)


def test_ablation_azure_storage_staging(benchmark):
    """Without task-hub staging/checkpointing, Azure's Video Analysis overhead collapses."""

    def run():
        baseline_profile = resolve_platform("azure")
        ablated_orchestration = replace(
            baseline_profile.orchestration,
            stage_storage_io=False,
            completion_io_s_per_byte=0.0,
            dispatch_backlog_s_per_byte=0.0,
        )
        ablated_profile = baseline_profile.with_overrides(orchestration=ablated_orchestration)
        baseline = _run_on_profile("video_analysis", baseline_profile, max(4, BURST_SIZE // 2), SEED)
        ablated = _run_on_profile("video_analysis", ablated_profile, max(4, BURST_SIZE // 2), SEED)
        return baseline, ablated

    baseline, ablated = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"Azure Video Analysis overhead with staging/checkpointing: "
          f"{baseline.median_overhead:.1f} s; without: {ablated.median_overhead:.1f} s")
    assert baseline.median_overhead > 5 * ablated.median_overhead


def test_ablation_gcp_scale_out_cap(benchmark):
    """Raising GCP's scale-out factor to 1.0 makes its burst cold-start fraction AWS-like."""

    def run():
        capped_profile = resolve_platform("gcp")
        uncapped_scaling = replace(capped_profile.scaling, scale_out_factor=1.0,
                                   provisioning_interval_s=0.02)
        uncapped_profile = capped_profile.with_overrides(scaling=uncapped_scaling)
        capped = _run_on_profile("mapreduce", capped_profile, BURST_SIZE, SEED)
        uncapped = _run_on_profile("mapreduce", uncapped_profile, BURST_SIZE, SEED)
        return capped, uncapped

    capped, uncapped = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"GCP MapReduce cold starts with the scale-out cap: {capped.cold_start_fraction:.0%}; "
          f"without: {uncapped.cold_start_fraction:.0%}")
    assert uncapped.cold_start_fraction > capped.cold_start_fraction
    assert uncapped.cold_start_fraction > 0.9


def test_ablation_cold_start_initialisation(benchmark):
    """Without in-function cold-start initialisation the AWS critical path shrinks sharply."""

    def run():
        bench = get_benchmark("ml")
        platform = Platform(resolve_platform("aws"), seed=SEED)
        deployment = Deployment.deploy(bench, platform)
        ids = BurstTrigger(TriggerConfig(burst_size=BURST_SIZE)).fire(deployment)
        baseline = summarize("ml", "aws", [deployment.measurement(i) for i in ids])

        stripped = get_benchmark("ml")
        for name, spec in stripped.functions.items():
            stripped.functions[name] = replace(spec, cold_init_s=0.0)
        platform2 = Platform(resolve_platform("aws"), seed=SEED)
        deployment2 = Deployment.deploy(stripped, platform2)
        ids2 = BurstTrigger(TriggerConfig(burst_size=BURST_SIZE)).fire(deployment2)
        ablated = summarize("ml", "aws", [deployment2.measurement(i) for i in ids2])
        return baseline, ablated

    baseline, ablated = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"AWS ML critical path with cold-start initialisation: "
          f"{baseline.median_critical_path:.1f} s; without: {ablated.median_critical_path:.1f} s")
    assert baseline.median_critical_path > 1.2 * ablated.median_critical_path
