"""Tests for CPU allocation models, OS-noise model, and random streams."""

import pytest

from repro.sim.noise import NoiseModel
from repro.sim.resources import MEMORY_CONFIGURATIONS_MB
from repro.sim.rng import RandomStreams
from repro.sim.resources import aws_cpu_model, azure_cpu_model, gcp_cpu_model, hpc_cpu_model


class TestRandomStreams:
    def test_same_seed_same_values(self):
        a = RandomStreams(5)
        b = RandomStreams(5)
        assert a.uniform("x", 0, 1) == b.uniform("x", 0, 1)

    def test_different_streams_are_independent(self):
        streams = RandomStreams(5)
        first = streams.uniform("a", 0, 1)
        # Drawing from stream "b" must not change what "a" produces next for a fresh instance.
        other = RandomStreams(5)
        other.uniform("b", 0, 1)
        assert other.uniform("a", 0, 1) == pytest.approx(first)

    def test_lognormal_median_is_positive(self):
        streams = RandomStreams(1)
        values = [streams.lognormal_around("lat", 2.0, 0.2) for _ in range(200)]
        assert all(v > 0 for v in values)
        assert 1.5 < sorted(values)[100] < 2.7

    def test_zero_median_returns_zero(self):
        assert RandomStreams(1).lognormal_around("x", 0.0) == 0.0

    def test_reversed_uniform_bounds_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(1).uniform("x", 2, 1)


class TestCPUModels:
    def test_aws_share_scales_linearly_with_memory(self):
        model = aws_cpu_model()
        assert model.share(1769) == pytest.approx(1.0, abs=0.05)
        assert model.share(128) < 0.1
        assert model.share(256) > model.share(128)

    def test_gcp_share_is_tiered(self):
        model = gcp_cpu_model()
        assert model.share(2048) == pytest.approx(1.0, abs=0.05)
        assert model.share(128) < model.share(512) < model.share(2048)

    def test_azure_share_independent_of_memory(self):
        model = azure_cpu_model()
        shares = [model.share(memory) for memory in MEMORY_CONFIGURATIONS_MB]
        assert max(shares) - min(shares) < 0.01
        assert min(shares) > 0.85

    def test_hpc_has_no_suspension(self):
        model = hpc_cpu_model()
        assert model.suspension(128) == 0.0

    def test_documented_share_interpolates(self):
        model = aws_cpu_model()
        middle = model.documented_share(1500)
        assert model.documented_share(1024) < middle < model.documented_share(1769)

    def test_azure_gets_more_cpu_than_aws_at_low_memory(self):
        # The mechanism behind Azure's fast critical path at 128/256 MB (Section 7.3.2).
        assert azure_cpu_model().share(128) > 5 * aws_cpu_model().share(128)

    def test_suspension_is_one_minus_share(self):
        allocation = aws_cpu_model().allocation(512)
        assert allocation.suspension_share == pytest.approx(1 - allocation.cpu_share)


class TestNoiseModel:
    def make(self, platform="aws"):
        models = {"aws": aws_cpu_model(), "gcp": gcp_cpu_model(), "azure": azure_cpu_model()}
        return NoiseModel(platform, models[platform], RandomStreams(11))

    def test_slowdown_is_inverse_of_share(self):
        noise = self.make("aws")
        slowdown = noise.execution_slowdown(256)
        assert slowdown == pytest.approx(1 / aws_cpu_model().share(256), rel=0.15)

    def test_slowdown_never_below_one(self):
        noise = self.make("azure")
        assert noise.execution_slowdown(2048) >= 1.0

    def test_detour_trace_estimates_suspension(self):
        noise = self.make("aws")
        trace = noise.sample_detour_trace(256, events_to_collect=2000)
        expected = aws_cpu_model().suspension(256)
        assert trace.suspension_share() == pytest.approx(expected, abs=0.08)

    def test_detour_trace_low_noise_for_full_cpu(self):
        noise = self.make("azure")
        trace = noise.sample_detour_trace(2048, events_to_collect=1000)
        assert trace.suspension_share() < 0.2

    def test_suspension_curve_covers_all_memories(self):
        noise = self.make("gcp")
        curve = noise.suspension_curve((128, 512, 2048), events=500)
        assert set(curve) == {128, 512, 2048}
        assert curve[128]["measured_suspension"] > curve[2048]["measured_suspension"]

    def test_detour_events_have_positive_lost_cycles(self):
        noise = self.make("aws")
        trace = noise.sample_detour_trace(128, events_to_collect=100)
        assert all(event.lost_cycles >= 0 for event in trace.events)
        assert trace.total_iterations > 0


class TestPaperFigure13a:
    def test_suspension_ordering_across_platforms(self):
        """At 1024 MB the paper measures less noise on GCP than AWS, and very
        little on Azure."""
        streams = RandomStreams(3)
        aws = NoiseModel("aws", aws_cpu_model(), streams).sample_detour_trace(1024, 2000)
        gcp = NoiseModel("gcp", gcp_cpu_model(), streams).sample_detour_trace(1024, 2000)
        azure = NoiseModel("azure", azure_cpu_model(), streams).sample_detour_trace(1024, 2000)
        assert gcp.suspension_share() < aws.suspension_share()
        assert azure.suspension_share() < aws.suspension_share()
