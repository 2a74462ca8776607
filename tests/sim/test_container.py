"""Tests for container (sandbox) lifecycle and scaling policies."""

import pytest

from repro.sim.rng import RandomStreams
from repro.sim.container import ContainerPool, ScalingPolicy
from repro.sim.engine import Environment


def make_pool(env, **overrides):
    defaults = dict(
        max_containers=100,
        per_function_pools=True,
        cold_start_median_s=0.5,
        cold_start_sigma=0.0,
        provisioning_interval_s=0.0,
        warm_dispatch_s=0.01,
        scale_out_factor=1.0,
        concurrency_per_container=1,
    )
    defaults.update(overrides)
    return ContainerPool(env, ScalingPolicy(**defaults), RandomStreams(5), "testcloud")


def run_acquires(env, pool, function, count, hold_s=1.0):
    """Acquire `count` sandboxes concurrently, hold them, release, return results."""
    results = []

    def worker():
        result = yield env.process(pool.acquire(function))
        results.append(result)
        yield env.timeout(hold_s)
        pool.release(result.container)

    barrier = env.all_of([env.process(worker()) for _ in range(count)])
    env.run(until=barrier)
    return results


class TestColdAndWarmStarts:
    def test_first_acquisition_is_cold(self):
        env = Environment()
        pool = make_pool(env)
        results = run_acquires(env, pool, "f", 1)
        assert results[0].cold_start
        assert results[0].cold_start_latency > 0

    def test_sequential_reuse_is_warm(self):
        env = Environment()
        pool = make_pool(env)
        run_acquires(env, pool, "f", 1)
        results = run_acquires(env, pool, "f", 1)
        assert not results[0].cold_start
        assert pool.containers_created("f") == 1

    def test_concurrent_burst_provisions_one_container_each(self):
        env = Environment()
        pool = make_pool(env)
        results = run_acquires(env, pool, "f", 10)
        assert all(result.cold_start for result in results)
        assert pool.containers_created("f") == 10

    def test_scale_out_factor_halves_provisioning(self):
        env = Environment()
        pool = make_pool(env, scale_out_factor=0.5)
        results = run_acquires(env, pool, "f", 10)
        assert pool.containers_created("f") <= 6
        assert sum(1 for r in results if not r.cold_start) >= 4

    def test_max_containers_cap_enforced(self):
        env = Environment()
        pool = make_pool(env, max_containers=3)
        run_acquires(env, pool, "f", 12)
        assert pool.containers_created("f") == 3

    def test_waiting_requests_eventually_served(self):
        env = Environment()
        pool = make_pool(env, max_containers=2)
        results = run_acquires(env, pool, "f", 6, hold_s=1.0)
        assert len(results) == 6
        # Three waves of two requests each.
        assert env.now >= 3.0


class TestPoolSharing:
    def test_per_function_pools_are_independent(self):
        env = Environment()
        pool = make_pool(env, per_function_pools=True)
        run_acquires(env, pool, "f", 2)
        run_acquires(env, pool, "g", 3)
        assert pool.containers_created("f") == 2
        assert pool.containers_created("g") == 3
        assert pool.containers_created() == 5

    def test_app_wide_pool_shared_across_functions(self):
        env = Environment()
        pool = make_pool(env, per_function_pools=False, concurrency_per_container=4,
                         max_containers=10)
        run_acquires(env, pool, "f", 3)
        run_acquires(env, pool, "g", 3)
        # All served by the same app pool.
        assert pool.containers_created() <= 2

    def test_concurrency_per_container_allows_sharing(self):
        env = Environment()
        pool = make_pool(env, per_function_pools=False, concurrency_per_container=16,
                         max_containers=10)
        results = run_acquires(env, pool, "f", 16)
        container_ids = {r.container.container_id for r in results}
        assert len(container_ids) == 1
        cold = sum(1 for r in results if r.cold_start)
        assert cold == 1


class TestProvisioningRate:
    def test_provisioning_interval_slows_scale_out(self):
        env_fast = Environment()
        fast = make_pool(env_fast, provisioning_interval_s=0.0)
        run_acquires(env_fast, fast, "f", 20, hold_s=0.1)
        fast_time = env_fast.now

        env_slow = Environment()
        slow = make_pool(env_slow, provisioning_interval_s=0.2)
        run_acquires(env_slow, slow, "f", 20, hold_s=0.1)
        assert env_slow.now > fast_time

    def test_release_requires_active_container(self):
        env = Environment()
        pool = make_pool(env)
        results = run_acquires(env, pool, "f", 1)
        with pytest.raises(ValueError):
            pool.release(results[0].container)

    def test_outstanding_counts_busy_and_waiting(self):
        env = Environment()
        pool = make_pool(env, max_containers=1)

        def holder():
            result = yield env.process(pool.acquire("f"))
            yield env.timeout(5.0)
            pool.release(result.container)

        def waiter():
            result = yield env.process(pool.acquire("f"))
            pool.release(result.container)

        env.process(holder())
        env.run(until=env.timeout(0.6))
        env.process(waiter())
        env.run(until=env.timeout(1.0))
        assert pool.outstanding("f") == 2
        env.run()
