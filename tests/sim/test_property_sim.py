"""Property-based tests (hypothesis) for the simulated substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RandomStreams
from repro.sim.billing import AWS_PRICING, BillingCalculator, FunctionExecutionRecord
from repro.sim.container import ContainerPool, ScalingPolicy
from repro.sim.engine import Environment
from repro.sim.storage.nosql import NoSQLProfile, NoSQLStorage
from repro.sim.storage.object_storage import ObjectStorage, StorageProfile


# ----------------------------------------------------------------------- engine
@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_parallel_timeouts_finish_at_the_maximum(delays):
    env = Environment()

    def waiter(delay):
        yield env.timeout(delay)
        return delay

    barrier = env.all_of([env.process(waiter(d)) for d in delays])
    values = env.run(until=barrier)
    assert values == delays
    assert abs(env.now - max(delays)) < 1e-9


@given(st.lists(st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
                min_size=1, max_size=15),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_container_pool_never_exceeds_capacity(durations, capacity):
    env = Environment()
    policy = ScalingPolicy(
        max_containers=capacity,
        per_function_pools=True,
        cold_start_median_s=0.1,
        cold_start_sigma=0.0,
        provisioning_interval_s=0.0,
        warm_dispatch_s=0.0,
    )
    pool = ContainerPool(env, policy, RandomStreams(1), "prop")
    observed = {"max": 0}

    def worker(duration):
        result = yield env.process(pool.acquire("fn"))
        observed["max"] = max(observed["max"], pool.active_containers())
        yield env.timeout(duration)
        pool.release(result.container)

    env.run(until=env.all_of([env.process(worker(d)) for d in durations]))
    assert observed["max"] <= capacity
    assert pool.containers_created("fn") <= capacity
    # Every request was eventually served (all workers completed).
    assert pool.outstanding("fn") == 0


# ---------------------------------------------------------------------- storage
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_transfer_duration_monotone_in_size_and_concurrency(size, concurrency):
    profile = StorageProfile(
        request_latency_s=0.01,
        per_function_bandwidth_bps=100e6,
        aggregate_bandwidth_bps=1e9,
        jitter_sigma=0.0,
    )
    storage = ObjectStorage(profile, RandomStreams(2), "prop")
    base = storage.download_duration(size, concurrency=1)
    crowded = storage.download_duration(size, concurrency=concurrency)
    bigger = storage.download_duration(size + 1_000_000, concurrency=1)
    assert base > 0
    assert crowded >= base - 1e-12
    assert bigger >= base - 1e-12


@given(st.dictionaries(st.text(min_size=1, max_size=6), st.integers(min_value=0, max_value=1000),
                       min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_nosql_roundtrip_preserves_items(item):
    profile = NoSQLProfile(
        read_latency_s=0.001, write_latency_s=0.001, billing_model="dynamodb",
        read_unit_price=1e-6, write_unit_price=1e-6, jitter_sigma=0.0,
    )
    nosql = NoSQLStorage(profile, RandomStreams(3), "prop")
    nosql.put_item("t", "pk", item, sort_key="s")
    stored, _ = nosql.get_item("t", "pk", sort_key="s")
    assert stored == item
    assert nosql.total_cost() > 0


# ---------------------------------------------------------------------- billing
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
                          st.sampled_from([128, 256, 512, 1024, 2048])),
                max_size=30),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_billing_is_additive_and_scales_linearly(executions, transitions):
    calculator = BillingCalculator(AWS_PRICING)
    records = [FunctionExecutionRecord(f"f{i}", duration_s=d, memory_mb=m)
               for i, (d, m) in enumerate(executions)]
    breakdown = calculator.execution_cost(records, state_transitions=transitions)
    assert breakdown.total_usd >= 0
    doubled = calculator.execution_cost(records + records, state_transitions=2 * transitions)
    assert abs(doubled.compute_usd - 2 * breakdown.compute_usd) < 1e-12
    assert abs(doubled.orchestration_usd - 2 * breakdown.orchestration_usd) < 1e-12


# --------------------------------------------------------------------- streams
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_random_streams_reproducible(seed, name):
    first = RandomStreams(seed).uniform(name, 0.0, 1.0)
    second = RandomStreams(seed).uniform(name, 0.0, 1.0)
    assert first == second
    assert 0.0 <= first <= 1.0
