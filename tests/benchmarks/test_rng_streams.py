"""Regression tests for the named-stream routing of benchmark randomness.

The raw ``np.random.default_rng(seed)`` draws in the ML and Video Analysis
benchmarks were rerouted through ``repro.sim.rng`` named streams (and the
linter's R001 now bans the old pattern).  These tests pin the properties that
rerouting must preserve: per-seed determinism across calls and runs, seed
sensitivity, and exact equivalence between the free function and the
``RandomStreams`` family.
"""

import numpy as np

from repro.benchmarks.ml import _make_dataset, _train_forest
from repro.benchmarks.video_analysis import _synthesize_frame
from repro.benchmarks import get_benchmark
from repro.faas.experiment import run_benchmark
from repro.faas.workload import WorkloadSpec
from repro.faas.results import result_to_dict
from repro.sim.rng import RandomStreams, derive_stream_seed, named_stream


class TestNamedStreamDerivation:
    def test_named_stream_matches_randomstreams_family(self):
        direct = named_stream(7, "cold_start").normal(size=16)
        family = RandomStreams(7).stream("cold_start").normal(size=16)
        assert np.array_equal(direct, family)

    def test_derivation_is_pinned(self):
        # The sha256-based derivation is part of the reproducibility contract:
        # changing it would silently re-seed every stream in every experiment.
        assert derive_stream_seed(0, "x") == int.from_bytes(
            __import__("hashlib").sha256(b"0:x").digest()[:8], "little"
        )
        assert derive_stream_seed(0, "x") != derive_stream_seed(1, "x")
        assert derive_stream_seed(0, "x") != derive_stream_seed(0, "y")


class TestMLStreams:
    def test_dataset_deterministic_across_calls(self):
        first_x, first_y = _make_dataset(3)
        second_x, second_y = _make_dataset(3)
        assert np.array_equal(first_x, second_x)
        assert np.array_equal(first_y, second_y)

    def test_dataset_distinct_per_seed(self):
        assert not np.array_equal(_make_dataset(3)[0], _make_dataset(4)[0])

    def test_forest_deterministic_across_calls(self):
        features, labels = _make_dataset(3)
        assert _train_forest(features, labels, seed=5) == _train_forest(
            features, labels, seed=5
        )


class TestVideoStreams:
    def test_frame_deterministic_across_calls(self):
        assert np.array_equal(_synthesize_frame(11), _synthesize_frame(11))

    def test_frame_distinct_per_seed(self):
        assert not np.array_equal(_synthesize_frame(11), _synthesize_frame(12))


class TestEndToEndDeterminism:
    def test_ml_benchmark_runs_are_bit_identical(self):
        """Acceptance: the full ML experiment (the benchmark whose raw draws
        were rerouted) is deterministic across runs for a given seed."""
        results = [
            result_to_dict(
                run_benchmark(get_benchmark("ml"), "aws", seed=1,
                              workload=WorkloadSpec.burst(2))
            )
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_video_benchmark_runs_are_bit_identical(self):
        results = [
            result_to_dict(
                run_benchmark(get_benchmark("video_analysis"), "gcp", seed=2,
                              workload=WorkloadSpec.burst(2))
            )
            for _ in range(2)
        ]
        assert results[0] == results[1]
