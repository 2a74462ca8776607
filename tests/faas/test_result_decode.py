"""The decode contract of ``result_from_dict``.

The cell cache, the grid merge and the figure pipeline all treat a result
document that does not decode as a miss.  They can only do that if the
decoder fails in a known way: on any malformed document it raises one of
``DECODE_ERRORS`` and nothing else.  The property below breaks one node of a
real result document at a time and checks exactly that.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas import CampaignSpec, WorkloadSpec
from repro.faas.campaign import execute_job_inline
from repro.faas.results import DECODE_ERRORS, result_from_dict


def _document(workload: WorkloadSpec):
    spec = CampaignSpec(
        benchmarks=("function_chain",), platforms=("aws",), seeds=(0,),
        workloads=(workload,), repetitions=2,
    )
    [job] = spec.expand()
    return json.loads(json.dumps(execute_job_inline(job)))


@pytest.fixture(scope="module")
def documents():
    """A burst and an open-loop result: together they reach every decode branch."""
    return [
        _document(WorkloadSpec.burst(2)),
        _document(WorkloadSpec.poisson(rate=2, duration=4)),
    ]


def _paths(node, path=()):
    """Every node of a JSON document, as its key path from the root."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, path + (index,))


@pytest.fixture(scope="module")
def sites(documents):
    """``(document index, node path)`` pairs grouped by shape (list indices
    wildcarded), so every structural position is drawn as often as any
    other, however many function records a document holds."""
    shapes = {}
    for index, document in enumerate(documents):
        for path in _paths(document):
            shape = tuple("*" if isinstance(step, int) else step for step in path)
            shapes.setdefault(shape, []).append((index, path))
    return shapes


def _replaced(document, path, value):
    if not path:
        return value
    broken = copy.deepcopy(document)
    parent = broken
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return broken


def _decodes_or_fails_cleanly(document):
    try:
        result_from_dict(document)
    except DECODE_ERRORS:
        pass


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


def test_decode_errors_are_the_three_lookup_and_value_errors():
    assert DECODE_ERRORS == (KeyError, TypeError, ValueError)


def test_real_documents_decode(documents):
    for document in documents:
        assert result_from_dict(document).measurements


@settings(max_examples=400, deadline=None)
@given(data=st.data(), value=_json_values)
def test_one_broken_node_decodes_or_raises_a_decode_error(documents, sites, data, value):
    shape = data.draw(st.sampled_from(sorted(sites)), label="shape")
    index, path = data.draw(st.sampled_from(sites[shape]), label="site")
    _decodes_or_fails_cleanly(_replaced(documents[index], path, value))


@pytest.mark.parametrize(
    "path, value",
    [
        (("config", "platform_spec"), "aws"),
        (("config", "workload"), "burst"),
        (("config", "platform_spec", "overrides"), ["x"]),
        (("orchestration", 0), "x"),
        (("cost",), ["x"]),
        (("cost", "per_execution"), 1),
        (("measurements", 0), "x"),
        (("measurements", 0, "functions", 0), None),
        (("measurements", 0, "functions", 0, "start"), 10**400),
        (("measurements", 0, "metadata"), "x"),
        ((), ["x"]),
    ],
)
def test_known_malformed_shapes_raise_a_decode_error(documents, path, value):
    for document in documents:
        with pytest.raises(DECODE_ERRORS):
            result_from_dict(_replaced(document, path, value))
