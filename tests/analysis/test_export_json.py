"""The artifact export writer against the encoder it replaces.

``export_json(document)`` must be byte for byte
``json.dumps(document, indent=2, sort_keys=True, default=str)``: the files
of ``repro-flow figures --output DIR`` may not change.  The writer covers
every shape the paper's artifacts hold and hands any other shape to
``json.dumps`` whole, so the two agree on every value, also where json
raises.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import artifacts
from repro.analysis.artifacts import _write_json, export_json


class _Float(float):
    """json encodes a float subclass with ``float.__repr__``, not its own."""

    def __repr__(self):
        return "not JSON"


class _Int(int):
    def __repr__(self):
        return "not JSON"


def _oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, default=str)


def _outcome(encode, value):
    try:
        return encode(value)
    except (TypeError, ValueError) as error:
        return type(error)


_SCALARS = (
    st.none() | st.booleans() | st.text()
    | st.integers() | st.integers(min_value=2**63, max_value=2**200)
    | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324])
    | st.floats().map(_Float) | st.integers().map(_Int)
    | st.sampled_from([[], {}, (), [[]], {"": {}}, [(), {}]])
)

#: Every value the writer encodes itself.
COVERED = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4)
    | st.dictionaries(st.integers(), children, max_size=4),
    max_leaves=20,
)

#: Adds what only json encodes: keys that are not all str or all int
#: (mixed str and int keys make json raise), and values it encodes
#: through ``default=str``.
ANY = st.recursive(
    _SCALARS | st.complex_numbers(allow_nan=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.text(max_size=3) | st.integers(-3, 3) | st.booleans() | st.none()
        | st.floats(allow_nan=False), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(value=COVERED)
def test_the_writer_encodes_json_values_as_json_does(value):
    out = []
    _write_json(value, out.append, "\n")
    assert "".join(out) == _oracle(value)
    assert export_json(value) == _oracle(value)


@settings(max_examples=200, deadline=None)
@given(value=ANY)
def test_any_other_shape_goes_to_json_whole(value):
    assert _outcome(export_json, value) == _outcome(_oracle, value)


@pytest.mark.parametrize("value, expected", [
    ({2: "b", 10: "a", -1: None}, '{\n  "-1": null,\n  "2": "b",\n  "10": "a"\n}'),
    ([float("nan"), float("-inf"), _Float(1.5), _Int(7), True],
     "[\n  NaN,\n  -Infinity,\n  1.5,\n  7,\n  true\n]"),
    ({"é": ("x", [])}, '{\n  "\\u00e9": [\n    "x",\n    []\n  ]\n}'),
])
def test_known_shapes(value, expected):
    assert export_json(value) == expected == _oracle(value)


@pytest.fixture(scope="module")
def quick_plan_documents():
    config = artifacts.ArtifactConfig(quick=True, seed=0)
    plan = artifacts.plan_artifacts(artifacts.available_artifacts(), config)
    campaign = artifacts.execute_plan(plan, workers=1)
    return artifacts.render_plan(plan, campaign)


def test_every_quick_plan_artifact_is_written_without_the_fallback(quick_plan_documents):
    assert len(quick_plan_documents) == len(artifacts.available_artifacts()) == 17
    for name, artifact in quick_plan_documents.items():
        out = []
        _write_json(artifact.document(), out.append, "\n")  # raises where json would take over
        assert "".join(out) == _oracle(artifact.document()), name


def test_exported_files_are_the_json_encoders_bytes(quick_plan_documents, tmp_path):
    artifacts.write_artifacts(quick_plan_documents, tmp_path)
    for name, artifact in quick_plan_documents.items():
        written = (tmp_path / f"{name}.json").read_bytes()
        assert written == _oracle(artifact.document()).encode(), name
