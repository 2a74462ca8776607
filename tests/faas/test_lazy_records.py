"""A cell decoded from the column layout builds its record lists on first read.

``result_from_columns`` checks every column and computes the summary from
the columns; the measurements, orchestration stats and scaling profile are
built the first time something reads them.  The oracle is the eager column
reader the decode used before (``eager_column_lists`` below): the lists a
first read builds must equal its lists, and the summary must equal
``summarize`` over its measurements bit for bit.  A malformed entry is still
a miss at decode, so a first read never raises.
"""

import copy
import gc
import json
import math
import pickle
import struct
from collections import Counter
from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import artifacts
from repro.benchmarks.registry import ALL_BENCHMARKS
from repro.core.critical_path import FunctionMeasurement, WorkflowMeasurement
from repro.faas.campaign import (
    CampaignSpec, _cache_path, collector_paused, execute_job_inline, probe_cache,
    run_campaign,
)
from repro.faas.metrics import summarize
from repro.faas.results import (
    DECODE_ERRORS, _FUNCTION_FIELDS, _HEAD_FIELDS, _ORCHESTRATION_FIELDS, _PROFILE_FIELDS,
    _table, result_from_columns, result_from_dict, result_to_columns, result_to_dict,
)
from repro.sim.orchestration.events import OrchestrationStats

SPEC = CampaignSpec(
    benchmarks=tuple(sorted(ALL_BENCHMARKS)),
    platforms=("aws", "gcp", "azure", "hpc"),
    seeds=(0,),
    workloads=("burst:burst_size=2", "poisson:rate=2,duration=2"),
)


LISTS = {"measurements", "orchestration_stats", "scaling_profile"}


def eager_column_lists(document):
    """The three lists, built at once: the column reader before lazy builds."""
    names = document["names"]
    if not isinstance(names, list):
        raise TypeError("the name table must be a JSON array")
    name = dict(enumerate(map(str, names))).__getitem__
    records = list(map(FunctionMeasurement, *map(
        map, (name, name, float, float, str, str, bool),
        _table(document["functions"], _FUNCTION_FIELDS, "the function table"),
    )))
    workflow, platform, invocation_id, memory_mb, metadata, counts = _table(
        document["measurements"], _HEAD_FIELDS, "the measurement table"
    )
    ends = list(accumulate(counts))
    if (ends[-1] if ends else 0) != len(records) or min(counts, default=0) < 0:
        raise ValueError("measurement record counts disagree with the function table")
    measurements = [
        WorkflowMeasurement(name(w), name(p), str(i), records[a:b], int(mb), dict(meta))
        for w, p, i, mb, meta, a, b in zip(
            workflow, platform, invocation_id, memory_mb, metadata, [0, *ends], ends
        )
    ]
    orchestration = list(map(OrchestrationStats, *map(
        map, (name, name, str, int, float, int, float, float),
        _table(document["orchestration"], _ORCHESTRATION_FIELDS, "the orchestration table"),
    )))
    times, containers = _table(
        document["scaling_profile"], _PROFILE_FIELDS, "the scaling-profile table"
    )
    profile = [{"time": t, "containers": c} for t, c in zip(times, containers)]
    return measurements, orchestration, profile


def bits(values):
    return [struct.pack("<d", value) for value in values]


def assert_matches_oracle(columns):
    """The lazily built lists equal the oracle's, and the summary is the
    oracle's ``summarize`` bit for bit."""
    measurements, orchestration, profile = eager_column_lists(columns)
    result = result_from_columns(columns)
    expected = summarize(result.benchmark, result.platform, measurements)
    summary = result.summary
    assert bits(summary.runtimes) == bits(expected.runtimes)
    assert bits(summary.critical_paths) == bits(expected.critical_paths)
    assert bits(summary.overheads) == bits(expected.overheads)
    assert bits([summary.cold_start_fraction]) == bits([expected.cold_start_fraction])
    assert summary.invocations == expected.invocations
    # By repr, where nan and -0.0 show.
    assert repr(result.scaling_profile) == repr(profile)
    assert repr(result.orchestration_stats) == repr(orchestration)
    assert repr(result.measurements) == repr(measurements)


@pytest.fixture(scope="module")
def column_documents():
    """Every benchmark on every platform kind, under a burst and a poisson
    workload, as cell-cache entries store them."""
    return [json.loads(json.dumps(result_to_columns(execute_job_inline(job))))
            for job in SPEC.expand()]


def test_every_cell_builds_the_eager_lists(column_documents):
    assert len(column_documents) == len(ALL_BENCHMARKS) * 4 * 2
    for columns in column_documents:
        assert_matches_oracle(columns)


def test_decode_builds_only_the_measurements_of_open_loop_cells(column_documents):
    """An open-loop cell's ``open_loop`` summary is derived at decode from its
    measurements; every other list waits for a read."""
    for columns in column_documents:
        built = set(vars(result_from_columns(columns)))
        open_loop = columns["config"]["workload"]["kind"] == "poisson"
        assert built & LISTS == ({"measurements"} if open_loop else set())


def _unpacked(table, key):
    """A column of a column table as a JSON array."""
    return list(_table(table, (key,), "a table")[0])


def _crafted(document):
    """``document`` with the values a summary gets wrong easiest: signed
    zeros, nan inside a measurement, and two name-table entries spelling
    one phase."""
    crafted = copy.deepcopy(document)
    functions = crafted["functions"]
    start, end = _unpacked(functions, "start"), _unpacked(functions, "end")
    first, second = crafted["measurements"]["records"][:2]
    # Measurement 0: a zero-length first record at -0.0, then nan.
    start[0] = end[0] = -0.0
    start[1] = end[2] = float("nan")
    # Measurement 1: its first phase also under a second index, and a
    # zero-length record at +0.0.
    names, phase = crafted["names"], functions["phase"]
    names.append(names[phase[first]])
    for row in range(first, first + second):
        if phase[row] == phase[first] and row % 2:
            phase[row] = len(names) - 1
    start[first] = end[first] = 0.0
    functions["start"], functions["end"] = start, end
    return crafted


def test_crafted_zeros_nan_and_repeated_names_summarize_bit_for_bit(column_documents):
    crafted = [_crafted(columns) for columns in column_documents
               if columns["measurements"]["records"][:1] > [2]
               and len(columns["measurements"]["records"]) > 1]
    assert len(crafted) > 10
    for columns in crafted:
        assert_matches_oracle(columns)


_floats = st.sampled_from([0.0, -0.0, 5e-324, float("nan"), float("inf"), 1e300]) | st.floats()


def oracle_lists(columns):
    """The oracle's lists, or None where the decode must raise: the oracle
    raises, or its runtimes have no finite sum."""
    try:
        lists = eager_column_lists(columns)
        if math.isfinite(math.fsum(summarize("b", "p", lists[0]).runtimes)):
            return lists
    except (*DECODE_ERRORS, OverflowError):
        pass
    return None


FLOAT_COLUMNS = [("functions", "start"), ("functions", "end"),
                 ("orchestration", "orchestrator_time_s"), ("orchestration", "started_at"),
                 ("orchestration", "finished_at"), ("scaling_profile", "time")]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_float_column_decodes_as_the_oracle(column_documents, data):
    """Decode raises exactly where the oracle does; otherwise the summary
    and every list match it."""
    columns = copy.deepcopy(data.draw(st.sampled_from(column_documents), label="cell"))
    table, key = data.draw(st.sampled_from(FLOAT_COLUMNS), label="column")
    values = _unpacked(columns[table], key)
    assume(values)
    for row in data.draw(st.lists(st.integers(0, len(values) - 1), min_size=1, max_size=4)):
        values[row] = data.draw(_floats)
    columns[table][key] = values
    if oracle_lists(columns) is None:
        with pytest.raises(DECODE_ERRORS):
            result_from_columns(columns)
    else:
        assert_matches_oracle(columns)


def _first(table, key, value):
    """Set the first value of a column."""
    def edit(columns):
        column = _unpacked(columns[table], key)
        column[0] = value
        columns[table][key] = column
    return edit


def _swap_start_end(columns):
    functions = columns["functions"]
    functions["start"], functions["end"] = functions["end"], functions["start"]


def _shorten_containers(columns):
    columns["scaling_profile"]["containers"] = _unpacked(
        columns["scaling_profile"], "containers")[1:]


#: Entries that must be a miss at decode, or a first read of them would raise.
MALFORMED = {
    "orchestration_name_index": _first("orchestration", "workflow", 99),
    "orchestration_transitions_text": _first("orchestration", "state_transitions", "x"),
    "orchestration_activity_null": _first("orchestration", "activity_count", None),
    "orchestration_time_text": _first("orchestration", "orchestrator_time_s", "x"),
    "head_memory_text": _first("measurements", "memory_mb", "x"),
    "head_metadata_text": _first("measurements", "metadata", "x"),
    "head_name_index": _first("measurements", "platform", -1),
    "function_name_index": _first("functions", "function", 0.5),
    "function_end_before_start": _swap_start_end,
    "profile_columns_differ": _shorten_containers,
    "profile_column_not_an_array": lambda columns: columns["scaling_profile"].update(time="x"),
    "profile_not_a_table": lambda columns: columns.update(scaling_profile=["x"]),
}

CHAIN = CampaignSpec(benchmarks=("function_chain",), platforms=("aws",), seeds=(0,),
                     burst_size=2)


@pytest.fixture(scope="module")
def cached_entry(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    run_campaign(CHAIN, workers=1, cache_dir=cache)
    [job] = CHAIN.expand()
    return _cache_path(cache, job).read_text()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_entry_is_a_miss_at_decode(cached_entry, tmp_path, case):
    entry = json.loads(cached_entry)
    MALFORMED[case](entry["result"])
    with pytest.raises(DECODE_ERRORS):
        eager_column_lists(entry["result"])
    with pytest.raises(DECODE_ERRORS):
        result_from_columns(entry["result"])
    [job] = CHAIN.expand()
    _cache_path(tmp_path, job).write_text(json.dumps(entry))
    assert not probe_cache(tmp_path, job)


def test_a_lazy_result_pickles_copies_and_equals_its_eager_twin(column_documents):
    columns = column_documents[0]
    eager = result_from_dict(result_to_dict(result_from_columns(columns)))
    assert "measurements" in vars(eager)

    def lazy():
        result = result_from_columns(columns)
        assert "measurements" not in vars(result)
        return result

    assert lazy() == eager
    assert pickle.loads(pickle.dumps(lazy())) == eager
    assert copy.deepcopy(lazy()) == eager
    assert replace(lazy(), containers_created=eager.containers_created) == eager
    original = lazy()
    twin = copy.copy(original)
    assert original.measurements == eager.measurements  # builds the original only
    assert "measurements" not in vars(twin)
    assert twin == eager and twin.scaling_profile is not original.scaling_profile
    assert original == eager
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        original.bogus  # noqa: B018
    assert not hasattr(lazy(), "bogus")
    # A built list is a plain attribute: later reads return the same list.
    assert original.measurements is original.measurements


# ------------------------------------------------- the cache-served paper run
def cyclic_garbage(work) -> Counter:
    """Types of the unreachable objects ``work()`` leaves, the collector off
    (``tests/faas/test_collector_pause.py``'s method)."""
    gc.collect()
    flags = gc.get_debug()
    with collector_paused():
        work()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return Counter(type(obj).__qualname__ for obj in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()


@pytest.fixture(scope="module")
def paper_cache(tmp_path_factory):
    """The seed-0 ``figures --all`` plan, its cells run once into a cache."""
    plan = artifacts.plan_artifacts(artifacts.available_artifacts(),
                                    artifacts.ArtifactConfig(seed=0))
    cache = tmp_path_factory.mktemp("paper-cache")
    artifacts.execute_plan(plan, workers=2, cache_dir=cache)
    return plan, cache


def test_a_cache_served_paper_run_builds_only_what_its_figures_read(paper_cache):
    plan, cache = paper_cache
    campaign = artifacts.execute_plan(plan, workers=1, cache_dir=cache)
    assert campaign.cache_hits == len(plan.jobs) == 139

    def built():
        return Counter(name for cell in campaign.cells for name in vars(cell.result)
                       if name in LISTS)

    # The three open-loop cells derive their open-loop summary at decode.
    assert built() == {"measurements": 3}
    garbage = cyclic_garbage(lambda: artifacts.render_plan(plan, campaign))
    assert not garbage, garbage.most_common(10)
    # Figures 9b and 12 read the records of 24 cells, Figure 11 the scaling
    # profiles of 15; nothing reads orchestration stats.
    assert built() == {"measurements": 3 + 24, "scaling_profile": 15}
