"""``RuntimeBreakdown.from_measurement`` against the four-pass body it replaced.

The breakdown finds the span and the cold count in one loop, then calls
``critical_path()``.  The oracle below is the previous body, kept verbatim:
it reads ``runtime`` (a min pass and a max pass), ``critical_path()`` and
``cold_start_fraction()``.  Every field is compared by ``repr``, so a
different float bit, a -0.0 or a nan fails here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.critical_path import (
    FunctionMeasurement,
    RuntimeBreakdown,
    WorkflowMeasurement,
)


def oracle_from_measurement(measurement: WorkflowMeasurement) -> RuntimeBreakdown:
    runtime = measurement.runtime
    critical_path = measurement.critical_path()
    return RuntimeBreakdown(
        runtime=runtime,
        critical_path=critical_path,
        overhead=max(0.0, runtime - critical_path),
        cold_start_fraction=measurement.cold_start_fraction(),
    )


def exact(breakdown: RuntimeBreakdown):
    return tuple(
        repr(getattr(breakdown, name))
        for name in ("runtime", "critical_path", "overhead", "cold_start_fraction")
    )


#: A few shared timestamps make ties in start and end, and zero-length
#: functions, common; arbitrary floats cover the rest.
_instant = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 2**-52, 3.0, 1e-300]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_function = st.tuples(
    st.sampled_from(["a", "b", "c"]),  # few phases, so phases repeat
    _instant,
    _instant,
    st.booleans(),
)


@st.composite
def measurements(draw):
    entries = draw(st.lists(_function, min_size=1, max_size=8))
    coldness = draw(st.sampled_from(["mixed", "all_cold", "all_warm"]))
    measurement = WorkflowMeasurement(workflow="wf", platform="aws", invocation_id="i")
    for index, (phase, first, second, cold) in enumerate(entries):
        # Order the pair without dropping a nan: end >= start must hold.
        start, end = (second, first) if second < first else (first, second)
        if coldness != "mixed":
            cold = coldness == "all_cold"
        measurement.add(FunctionMeasurement(f"f{index}", phase, start, end, cold_start=cold))
    return measurement


@settings(max_examples=500, deadline=None)
@given(measurement=measurements())
def test_breakdown_matches_the_four_pass_oracle(measurement):
    assert exact(RuntimeBreakdown.from_measurement(measurement)) == exact(
        oracle_from_measurement(measurement)
    )


@pytest.mark.parametrize(
    "functions",
    [
        # ties in start and end across phases
        [("a", 0.0, 1.0, False), ("b", 0.0, 1.0, True), ("a", 0.0, 1.0, False)],
        # zero-length functions only
        [("a", 2.0, 2.0, True), ("b", 2.0, 2.0, True)],
        # -0.0 and 0.0 tie: the first extreme wins, as in min()/max()
        [("a", 0.0, 0.0, False), ("a", -0.0, -0.0, False)],
        [("a", -0.0, 0.0, False), ("b", 0.0, -0.0, False)],
        [("a", 0.0, -0.0, False), ("b", -0.0, -0.0, False)],
        [("a", -0.0, -0.0, False), ("b", 0.0, 0.0, False)],
        # repeated phases, interleaved
        [("a", 0.0, 1.0, True), ("b", 1.0, 3.0, False), ("a", 3.0, 3.5, False),
         ("b", 3.5, 3.6, True)],
    ],
)
def test_edge_cases_match_the_oracle(functions):
    measurement = WorkflowMeasurement(workflow="wf", platform="aws", invocation_id="i")
    for index, (phase, start, end, cold) in enumerate(functions):
        measurement.add(FunctionMeasurement(f"f{index}", phase, start, end, cold_start=cold))
    assert exact(RuntimeBreakdown.from_measurement(measurement)) == exact(
        oracle_from_measurement(measurement)
    )


def test_empty_measurement_raises_the_same_error():
    empty = WorkflowMeasurement(workflow="wf", platform="aws", invocation_id="i")
    with pytest.raises(ValueError) as new:
        RuntimeBreakdown.from_measurement(empty)
    with pytest.raises(ValueError) as old:
        oracle_from_measurement(empty)
    assert str(new.value) == str(old.value)


class TestRecordShape:
    def test_records_are_slotted(self):
        record = FunctionMeasurement("f", "p", 0.0, 1.0)
        assert not hasattr(record, "__dict__")
        assert not hasattr(WorkflowMeasurement("wf", "aws", "i"), "__dict__")

    def test_records_are_unhashable_values(self):
        record = FunctionMeasurement("f", "p", 0.0, 1.0, "r", "c", True)
        assert FunctionMeasurement.__hash__ is None
        assert record == FunctionMeasurement("f", "p", 0.0, 1.0, "r", "c", True)
        assert record != ("f", "p", 0.0, 1.0, "r", "c", True)

    def test_field_order_is_positional(self):
        record = FunctionMeasurement("f", "p", 0.5, 1.5, "r", "c", True)
        assert (record.function, record.phase, record.start, record.end,
                record.request_id, record.container_id, record.cold_start) == \
            ("f", "p", 0.5, 1.5, "r", "c", True)

    def test_end_before_start_raises(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            FunctionMeasurement("f", "p", 2.0, 1.0)
