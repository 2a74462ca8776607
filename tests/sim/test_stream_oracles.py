"""The stream seeding and vectorized detour sampling against the code they
replaced.

``named_stream`` seeds PCG64 from a straight-line port of numpy's
``SeedSequence`` hashing, memoized per derived seed; ``lognormal_around``
scales a standard normal draw; ``sample_detour_trace`` draws a whole trace
in one broadcast call, and ``suspension_curve`` reduces the draw arrays
without building events.  The oracles below are numpy's ``SeedSequence``
and the previous implementations, kept verbatim: any drift in a draw, an
event or a float bit fails here.
"""

import gc
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import rng
from repro.sim.noise import DetourEvent, DetourTrace, NoiseModel
from repro.sim.resources import (
    MEMORY_CONFIGURATIONS_MB, aws_cpu_model, azure_cpu_model, gcp_cpu_model, hpc_cpu_model,
)
from repro.sim.rng import RandomStreams
from repro.sim.rng import derive_stream_seed, named_stream


@pytest.fixture(autouse=True)
def fresh_memo():
    rng._pcg64_seed_state.cache_clear()
    yield
    rng._pcg64_seed_state.cache_clear()


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


# ------------------------------------------------------------------ streams
def oracle_named_stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(derive_stream_seed(seed, name))


DRAWS = {
    "normal": lambda g: g.normal(3.0, 0.5, size=64),
    "uniform": lambda g: g.uniform(-1.0, 2.0, size=64),
    "exponential": lambda g: g.exponential(0.25, size=64),
    "integers": lambda g: g.integers(0, 10**9, size=64),
    "random": lambda g: g.random(size=64),
}
STREAMS = [(0, "cold_start"), (7, "handler:ml:train:dataset"), (2**40, "é"), (12345, "")]


@pytest.mark.parametrize("method", sorted(DRAWS))
@pytest.mark.parametrize("seed,name", STREAMS)
def test_named_stream_draws_equal_default_rng(method, seed, name):
    draw = DRAWS[method]
    expected = draw(oracle_named_stream(seed, name)).tobytes()
    misses = rng._pcg64_seed_state.cache_info().misses
    assert draw(named_stream(seed, name)).tobytes() == expected
    assert rng._pcg64_seed_state.cache_info().misses == misses + 1
    hits = rng._pcg64_seed_state.cache_info().hits
    assert draw(named_stream(seed, name)).tobytes() == expected
    assert rng._pcg64_seed_state.cache_info().hits == hits + 1


def test_scalar_draws_and_random_streams_agree():
    name = "noise:aws:256:"
    for generator in (named_stream(3, name), RandomStreams(3).stream(name), named_stream(3, name)):
        reference = oracle_named_stream(3, name)
        assert generator.bit_generator.state == reference.bit_generator.state
        assert [generator.normal(0.0, 0.03) for _ in range(10)] == [
            reference.normal(0.0, 0.03) for _ in range(10)
        ]


#: Entropy of one word, of two words, and the edges between them.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.parametrize("derived", EDGE_SEEDS)
def test_memoized_state_equals_seed_sequence(derived):
    expected = np.random.SeedSequence(derived).generate_state(4, np.uint64)
    assert rng._pcg64_seed_state(derived) == expected.tobytes()
    memoized = rng._memoized_seed_type()(derived)
    assert np.array_equal(memoized.generate_state(4, np.uint64), expected)
    assert np.random.PCG64(memoized).state == np.random.PCG64(derived).state
    # Any other request is answered by SeedSequence itself.
    assert np.array_equal(
        memoized.generate_state(3, np.uint32),
        np.random.SeedSequence(derived).generate_state(3, np.uint32),
    )


def test_memo_is_bounded_and_holds_bytes():
    bound = rng._pcg64_seed_state.cache_info().maxsize
    assert bound == rng._SEED_STATE_MEMO_SIZE
    for index in range(bound + 50):
        named_stream(index, "fill")
    info = rng._pcg64_seed_state.cache_info()
    assert info.currsize == bound
    assert isinstance(rng._pcg64_seed_state(derive_stream_seed(0, "x")), bytes)
    # Evicted seeds are re-derived to the same draws.
    assert named_stream(0, "fill").random() == oracle_named_stream(0, "fill").random()


def seed_sequence_state(derived: int) -> np.ndarray:
    return np.random.SeedSequence(derived).generate_state(4, np.uint64)


@settings(max_examples=500, deadline=None)
@given(derived=st.integers(0, 2**64 - 1) | st.sampled_from(EDGE_SEEDS))
def test_ported_state_equals_seed_sequence(derived):
    ported = np.frombuffer(rng._pcg64_seed_state.__wrapped__(derived), np.uint64)
    assert np.array_equal(ported, seed_sequence_state(derived))


@pytest.fixture
def seed_sequence_calls(monkeypatch):
    """The seeds ``np.random.SeedSequence`` is built for while the test runs."""
    calls = []
    real = np.random.SeedSequence

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", spy)
    return calls


@pytest.mark.parametrize("derived", [2**64, 2**64 + 1, 2**100, 3**90])
def test_out_of_range_seeds_take_the_numpy_fallback(derived, seed_sequence_calls):
    expected = seed_sequence_state(derived)
    seed_sequence_calls.clear()
    assert np.array_equal(np.frombuffer(rng._pcg64_seed_state(derived), np.uint64), expected)
    assert seed_sequence_calls == [(derived,)]


def test_a_negative_seed_is_rejected_as_numpy_rejects_it():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError):
        rng._pcg64_seed_state(-1)


@pytest.mark.parametrize("seed,name", STREAMS)
def test_an_in_range_named_stream_builds_no_seed_sequence(seed, name, seed_sequence_calls):
    generator = named_stream(seed, name)
    assert seed_sequence_calls == []
    assert rng._pcg64_seed_state.cache_info().misses == 1
    reference = oracle_named_stream(seed, name)
    assert generator.bit_generator.state == reference.bit_generator.state


def oracle_lognormal_around(g: np.random.Generator, median: float, sigma: float) -> float:
    return float(median * np.exp(g.normal(0.0, sigma)))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    median=st.floats(1e-9, 1e6),
    sigma=st.sampled_from([0.0, 0.03, 0.25]) | st.floats(0.0, 8.0),
)
def test_lognormal_around_equals_the_normal_draw(seed, median, sigma):
    streams = RandomStreams(seed)
    reference = oracle_named_stream(seed, "lat")
    for _ in range(16):
        drawn = streams.lognormal_around("lat", median, sigma)
        assert bits(drawn) == bits(oracle_lognormal_around(reference, median, sigma))


def test_lognormal_around_rejects_a_negative_sigma_as_numpy_did():
    with pytest.raises(ValueError):
        oracle_lognormal_around(np.random.default_rng(0), 1.0, -0.1)
    with pytest.raises(ValueError):
        RandomStreams(0).lognormal_around("lat", 1.0, -0.1)


def test_rng_memory_stays_bounded():
    """Fresh streams leave at most the bounded seed-state memo behind.

    Counted as live interpreter blocks, not traced bytes: tracing makes
    every integer step of the seed port slow.  The bound is 1 MiB of
    64-byte blocks; the 2,048-entry memo holds about 6,000 blocks, and an
    unbounded one would keep about 40,000 for these 20,000 seeds.
    """
    named_stream(0, "warm-up")  # first-use types and imports are not the memo
    gc.collect()
    before = sys.getallocatedblocks()
    for index in range(20_000):
        named_stream(index, "fresh")
    gc.collect()
    assert sys.getallocatedblocks() - before <= (1 << 20) // 64


# ------------------------------------------------------------------ detours
def oracle_sample_detour_trace(
    model: NoiseModel, memory_mb: int, events_to_collect: int = 5000, invocation: str = ""
) -> DetourTrace:
    allocation = model._cpu_model.allocation(memory_mb)
    suspension = allocation.suspension_share
    stream = model._streams.stream(f"detour:{model._platform}:{memory_mb}:{invocation}")
    expected_cycles = 100.0
    trace = DetourTrace(
        platform=model._platform,
        memory_mb=memory_mb,
        expected_cycles_per_iteration=expected_cycles,
    )

    if suspension <= 1e-6:
        detour_magnitude = expected_cycles * 0.05
        iterations_between = 10_000
    else:
        iterations_between = 2_000
        useful_between = iterations_between * expected_cycles
        detour_magnitude = suspension * useful_between / (1.0 - suspension)

    iteration = 0
    for _ in range(events_to_collect):
        gap = max(1, int(stream.normal(iterations_between, iterations_between * 0.05)))
        iteration += gap
        observed = expected_cycles + max(
            0.0, stream.normal(detour_magnitude, detour_magnitude * 0.1)
        )
        trace.events.append(
            DetourEvent(
                iteration=iteration,
                expected_cycles=expected_cycles,
                observed_cycles=observed,
            )
        )
    trace.total_iterations = iteration
    return trace


CPU_MODELS = {
    "aws": aws_cpu_model,
    "gcp": gcp_cpu_model,
    "azure": azure_cpu_model,
    "hpc": hpc_cpu_model,
}


@pytest.mark.parametrize("events", [0, 1, 2, 5000])
@pytest.mark.parametrize("memory_mb", MEMORY_CONFIGURATIONS_MB)
@pytest.mark.parametrize("platform", sorted(CPU_MODELS))
def test_detour_trace_equals_scalar_loop(platform, memory_mb, events):
    cpu_model = CPU_MODELS[platform]()
    model = NoiseModel(platform, cpu_model, RandomStreams(5))
    oracle_model = NoiseModel(platform, cpu_model, RandomStreams(5))
    # Twice on one stream family: the second trace continues the stream.
    for invocation in ("", "", "inv-1"):
        trace = model.sample_detour_trace(memory_mb, events, invocation)
        expected = oracle_sample_detour_trace(oracle_model, memory_mb, events, invocation)
        assert trace.total_iterations == expected.total_iterations
        assert type(trace.total_iterations) is int
        assert len(trace.events) == len(expected.events) == events
        for event, reference in zip(trace.events, expected.events):
            assert event.iteration == reference.iteration
            assert type(event.iteration) is int
            assert bits(event.expected_cycles) == bits(reference.expected_cycles)
            assert bits(event.observed_cycles) == bits(reference.observed_cycles)
        assert bits(trace.suspension_share()) == bits(expected.suspension_share())


def oracle_suspension_curve(model: NoiseModel, memory_configurations, events: int):
    """The per-event curve: build each trace, then walk its events."""
    curve = {}
    for memory in memory_configurations:
        allocation = model._cpu_model.allocation(memory)
        trace = model.sample_detour_trace(memory, events_to_collect=events)
        if trace.total_iterations == 0:
            measured = 0.0
        else:
            useful = trace.total_iterations * trace.expected_cycles_per_iteration
            lost = sum(event.lost_cycles for event in trace.events)
            measured = 0.0 if useful + lost == 0 else lost / (useful + lost)
        curve[memory] = {
            "measured_suspension": measured,
            "documented_suspension": allocation.documented_suspension_share,
        }
    return curve


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("events", [0, 1, 2, 500, 5000])
@pytest.mark.parametrize("platform", sorted(CPU_MODELS))
def test_suspension_curve_equals_per_event_curve(platform, events, seed):
    cpu_model = CPU_MODELS[platform]()
    model = NoiseModel(platform, cpu_model, RandomStreams(seed))
    oracle_model = NoiseModel(platform, cpu_model, RandomStreams(seed))
    # Twice over: the second sweep continues every stream.
    for _ in range(2):
        curve = model.suspension_curve(MEMORY_CONFIGURATIONS_MB, events=events)
        expected = oracle_suspension_curve(oracle_model, MEMORY_CONFIGURATIONS_MB, events)
        assert list(curve) == list(expected) == list(MEMORY_CONFIGURATIONS_MB)
        for memory, values in curve.items():
            reference = expected[memory]
            assert set(values) == set(reference)
            for key, value in values.items():
                assert type(value) is float
                assert bits(value) == bits(reference[key]), (memory, key)
