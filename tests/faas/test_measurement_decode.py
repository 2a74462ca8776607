"""``measurement_from_dict`` against the keyword/``add()`` decoder it replaced.

The decoder builds every per-function record positionally in one list
comprehension.  The oracle below is the previous implementation, kept
verbatim: any drift in a field, a type, a float bit or an error fails here.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import artifacts
from repro.core.critical_path import FunctionMeasurement, WorkflowMeasurement
from repro.faas.results import measurement_from_dict, measurement_to_dict


def oracle_measurement_from_dict(document):
    measurement = WorkflowMeasurement(
        workflow=str(document["workflow"]),
        platform=str(document["platform"]),
        invocation_id=str(document["invocation_id"]),
        memory_mb=int(document.get("memory_mb", 0)),
        metadata=dict(document.get("metadata", {})),
    )
    for entry in document.get("functions", []):
        measurement.add(
            FunctionMeasurement(
                function=str(entry["function"]),
                phase=str(entry["phase"]),
                start=float(entry["start"]),
                end=float(entry["end"]),
                request_id=str(entry.get("request_id", "")),
                container_id=str(entry.get("container_id", "")),
                cold_start=bool(entry.get("cold_start", False)),
            )
        )
    return measurement


def exact(measurement: WorkflowMeasurement):
    """Every field with its type; floats by ``repr`` (tells -0.0 and nan apart)."""

    def value(v):
        return (type(v), repr(v) if isinstance(v, float) else v)

    header = [
        value(getattr(measurement, name))
        for name in ("workflow", "platform", "invocation_id", "memory_mb")
    ]
    functions = [
        tuple(
            value(getattr(f, name))
            for name in (
                "function", "phase", "start", "end",
                "request_id", "container_id", "cold_start",
            )
        )
        for f in measurement.functions
    ]
    return header, repr(measurement.metadata), type(measurement.functions), functions


def outcome(decoder, document):
    try:
        return "ok", exact(decoder(document))
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return "raised", type(error), str(error)


@pytest.fixture(scope="module")
def quick_plan_measurements():
    config = artifacts.ArtifactConfig(quick=True, seed=0)
    plan = artifacts.plan_artifacts(artifacts.available_artifacts(), config)
    campaign = artifacts.execute_plan(plan, workers=1)
    return [
        measurement
        for cell in campaign.cells
        for measurement in cell.result.measurements
    ]


def test_every_quick_plan_measurement_decodes_identically(quick_plan_measurements):
    assert len(quick_plan_measurements) > 100
    for measurement in quick_plan_measurements:
        # Through JSON, as the cell cache and the grid logs store them.
        document = json.loads(json.dumps(measurement_to_dict(measurement)))
        decoded = measurement_from_dict(document)
        assert exact(decoded) == exact(oracle_measurement_from_dict(document))
        assert exact(decoded) == exact(measurement)


def test_end_before_start_raises_the_same_error():
    document = {
        "workflow": "w", "platform": "aws", "invocation_id": "i",
        "functions": [
            {"function": "ok", "phase": "p", "start": 0, "end": 1},
            {"function": "bad", "phase": "p", "start": 2.5, "end": 1},
        ],
    }
    with pytest.raises(ValueError) as new:
        measurement_from_dict(document)
    with pytest.raises(ValueError) as old:
        oracle_measurement_from_dict(document)
    assert str(new.value) == str(old.value)
    assert "ends before it starts (1.0 < 2.5)" in str(new.value)


def test_int_timestamps_and_flag_ints_are_coerced():
    document = {
        "workflow": "w", "platform": "gcp", "invocation_id": 7,
        "functions": [
            {"function": "f", "phase": "p", "start": 3, "end": 4, "cold_start": 1},
            {"function": "g", "phase": "p", "start": 4, "end": 4, "cold_start": 0},
        ],
    }
    decoded = measurement_from_dict(document)
    assert [type(f.start) for f in decoded.functions] == [float, float]
    assert [type(f.end) for f in decoded.functions] == [float, float]
    assert [f.cold_start for f in decoded.functions] == [True, False]
    assert decoded.invocation_id == "7"
    assert exact(decoded) == exact(oracle_measurement_from_dict(document))


_text = st.text(max_size=8)
_number = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True),
)
_function_entry = st.fixed_dictionaries(
    {"function": _text, "phase": _text, "start": _number, "end": _number},
    optional={
        "request_id": st.one_of(_text, st.integers()),
        "container_id": _text,
        "cold_start": st.one_of(st.booleans(), st.sampled_from([0, 1])),
    },
)
_document = st.fixed_dictionaries(
    {
        "workflow": _text,
        "platform": st.sampled_from(["aws", "gcp", "azure", "hpc", "łódź", "東京"]),
        "invocation_id": st.one_of(_text, st.integers()),
    },
    optional={
        "memory_mb": st.integers(min_value=0, max_value=10_240),
        "metadata": st.dictionaries(_text, st.one_of(_text, st.integers()), max_size=3),
        "functions": st.lists(_function_entry, max_size=6),
    },
)


@settings(deadline=None, max_examples=300)
@given(document=_document)
def test_arbitrary_documents_decode_identically(document):
    assert outcome(measurement_from_dict, document) == outcome(
        oracle_measurement_from_dict, document
    )


@settings(deadline=None, max_examples=100)
@given(
    document=_document,
    missing=st.sampled_from(["workflow", "platform", "invocation_id"]),
    entry=_function_entry,
)
def test_missing_keys_fail_the_same_way(document, missing, entry):
    document = dict(document, functions=[entry, {"phase": "p", "start": 0, "end": 1}])
    document.pop(missing)
    assert outcome(measurement_from_dict, document) == outcome(
        oracle_measurement_from_dict, document
    )
