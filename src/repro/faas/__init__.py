"""Benchmark-suite layer: benchmarks, deployment, workloads, experiments, cost.

Re-exports nothing: import from the submodules (``repro.faas.campaign``,
``repro.faas.grid``, ``repro.faas.experiment``, ...).
"""
