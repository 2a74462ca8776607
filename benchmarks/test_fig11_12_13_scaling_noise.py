"""Figures 11, 12, 13: scaling profiles, warm vs cold invocations, and OS noise
(experiments E1, E2, E6).  All cells come from the shared planned campaign."""

from __future__ import annotations

import conftest

from repro.analysis import artifacts, report
from repro.benchmarks.registry import APPLICATION_BENCHMARKS


def test_fig11_container_scaling_profiles(benchmark, paper_campaign):
    # Every E1 application benchmark, 1000Genome included (the artifact's
    # default selection leaves it out).
    names = tuple(sorted(APPLICATION_BENCHMARKS))
    config = conftest.ARTIFACT_CONFIG.with_overrides("figure11", benchmarks=names)
    profiles = benchmark.pedantic(
        artifacts.get_artifact("figure11").build,
        args=(paper_campaign.campaign_for(["figure7"]), config),
        rounds=1, iterations=1,
    )
    assert set(profiles) == set(names)
    print()
    rows = []
    for name, per_platform in profiles.items():
        for platform, profile in per_platform.items():
            peak = max((point["containers"] for point in profile), default=0)
            rows.append({"benchmark": name, "platform": platform, "peak_containers": peak,
                         "samples": len(profile)})
    print(report.format_table(rows, "Figure 11: peak distinct containers during the burst"))
    print("Paper: AWS and GCP scale with the workload phases (AWS faster); "
          "Azure never exceeds ~10 containers.")
    for name, per_platform in profiles.items():
        azure_peak = max((p["containers"] for p in per_platform["azure"]), default=0)
        aws_peak = max((p["containers"] for p in per_platform["aws"]), default=0)
        gcp_peak = max((p["containers"] for p in per_platform["gcp"]), default=0)
        assert azure_peak <= 10, name
        assert aws_peak >= gcp_peak, name
        assert aws_peak > azure_peak, name


def test_fig12_warm_vs_cold(benchmark, build_artifact):
    figure = benchmark.pedantic(
        build_artifact, args=("figure12",), rounds=1, iterations=1
    )
    print()
    print(report.format_nested(figure, "Figure 12: critical path and overhead, cold vs warm"))
    print("Paper: warm invocations improve the critical path up to 4.5x (AWS) / 2x (GCP), "
          "approaching Azure's performance.")
    for name, per_platform in figure.items():
        for platform in ("aws", "gcp"):
            values = per_platform[platform]
            assert values["warm_critical_path_s"] < values["cold_critical_path_s"], (name, platform)
        # Azure is already warm in burst mode; warm runs change little.
        azure = per_platform["azure"]
        assert azure["speedup_critical_path"] < 2.0, name


def test_fig13_os_noise_and_normalised_critical_path(benchmark, build_artifact):
    data = benchmark.pedantic(
        build_artifact, args=("figure13",), rounds=1, iterations=1
    )
    print()
    print(report.format_series(data["suspension"], "Figure 13a: suspension time vs memory"))
    print()
    print(report.format_nested(data["normalized_critical_path"],
                               "Figure 13b/c: normalised critical path"))
    print("Paper: suspension follows the documented CPU allocation on AWS/GCP "
          "(GCP measures less noise than AWS at 1024 MB); Azure suspension stays low.")
    aws = {p["memory_mb"]: p["measured_suspension"] for p in data["suspension"]["aws"]}
    gcp = {p["memory_mb"]: p["measured_suspension"] for p in data["suspension"]["gcp"]}
    azure = {p["memory_mb"]: p["measured_suspension"] for p in data["suspension"]["azure"]}
    assert aws[128] > aws[2048]
    assert gcp[1024] < aws[1024]
    assert all(value < 0.25 for value in azure.values())
    for name, per_platform in data["normalized_critical_path"].items():
        for platform, values in per_platform.items():
            assert values["normalized_critical_path_s"] <= values["original_critical_path_s"]
