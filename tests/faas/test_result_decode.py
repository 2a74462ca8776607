"""The decode contract of ``result_from_dict`` and ``result_from_columns``.

The cell cache, the grid merge and the figure pipeline all treat a result
document that does not decode as a miss.  They can only do that if the
decoder fails in a known way: on any malformed document it raises one of
``DECODE_ERRORS`` and nothing else.  The property below breaks one node of a
real document at a time, in the row layout and in the cell cache's column
layout, and checks exactly that.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas import CampaignSpec, WorkloadSpec
from repro.faas.campaign import execute_job_inline
from repro.faas.results import (
    DECODE_ERRORS, result_from_columns, result_from_dict, result_to_columns,
)


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


@pytest.fixture(scope="module")
def column_documents(documents):
    """The same results as cell-cache entries store them."""
    return [json.loads(json.dumps(result_to_columns(d))) for d in documents]


def _paths(node, path=()):
    """Every node of a JSON document, as its key path from the root."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, path + (index,))


def _sites(documents):
    """``(document index, node path)`` pairs grouped by shape (list indices
    wildcarded), so every structural position is drawn as often as any
    other, however many function records a document holds."""
    shapes = {}
    for index, document in enumerate(documents):
        for path in _paths(document):
            shape = tuple("*" if isinstance(step, int) else step for step in path)
            shapes.setdefault(shape, []).append((index, path))
    return shapes


@pytest.fixture(scope="module")
def sites(documents):
    return _sites(documents)


@pytest.fixture(scope="module")
def column_sites(column_documents):
    return _sites(column_documents)


def _replaced(document, path, value):
    if not path:
        return value
    broken = copy.deepcopy(document)
    parent = broken
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return broken


def _decodes_or_fails_cleanly(decode, document):
    try:
        decode(document)
    except DECODE_ERRORS:
        pass


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


def test_decode_errors_are_the_three_lookup_and_value_errors():
    assert DECODE_ERRORS == (KeyError, TypeError, ValueError)


def test_real_documents_decode(documents, column_documents):
    for document in documents:
        assert result_from_dict(document).measurements
    for document in column_documents:
        assert result_from_columns(document).measurements


def _break_one_node(decode, documents, sites, data, value):
    shape = data.draw(st.sampled_from(sorted(sites)), label="shape")
    index, path = data.draw(st.sampled_from(sites[shape]), label="site")
    _decodes_or_fails_cleanly(decode, _replaced(documents[index], path, value))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), value=_json_values)
def test_one_broken_node_decodes_or_raises_a_decode_error(documents, sites, data, value):
    _break_one_node(result_from_dict, documents, sites, data, value)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), value=_json_values)
def test_one_broken_column_entry_node_decodes_or_raises_a_decode_error(
    column_documents, column_sites, data, value
):
    """The cell cache's layout: column tables, name indices, record counts."""
    _break_one_node(result_from_columns, column_documents, column_sites, data, value)


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


#: Every column holding name-table indices.
NAME_COLUMNS = [
    ("functions", "function"), ("functions", "phase"),
    ("measurements", "workflow"), ("measurements", "platform"),
    ("orchestration", "platform"), ("orchestration", "workflow"),
]


@pytest.mark.parametrize("table, column", NAME_COLUMNS)
@pytest.mark.parametrize("index", ["past_end", -1, 0.5, "0", None, [0], {"0": 0}])
def test_bad_name_index_raises_a_decode_error(column_documents, table, column, index):
    """A negative index must not wrap around, one past the table must not
    escape as an IndexError, and a non-integer must not be coerced."""
    for document in column_documents:
        value = len(document["names"]) if index == "past_end" else index
        with pytest.raises(DECODE_ERRORS):
            result_from_columns(_replaced(document, (table, column, 0), value))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), index=st.integers() | st.floats() | st.booleans() | st.text(max_size=3))
def test_any_name_index_decodes_or_raises_a_decode_error(column_documents, data, index):
    table, column = data.draw(st.sampled_from(NAME_COLUMNS), label="column")
    document = data.draw(st.sampled_from(column_documents), label="document")
    row = data.draw(st.integers(0, len(document[table][column]) - 1), label="row")
    _decodes_or_fails_cleanly(
        result_from_columns, _replaced(document, (table, column, row), index)
    )


def _tables(document):
    """``(table, column)`` for every column of every column table."""
    for table in ("functions", "measurements", "orchestration", "scaling_profile"):
        for column in document[table]:
            yield table, column


@pytest.mark.parametrize("change", ["longer", "shorter"])
def test_columns_of_unequal_length_raise_a_decode_error(column_documents, change):
    """``zip`` would drop the rows past the shortest column; the decoder
    rejects the table instead."""
    for document in column_documents:
        for table, column in _tables(document):
            values = list(document[table][column])
            values = values + values[-1:] if change == "longer" else values[:-1]
            with pytest.raises(DECODE_ERRORS):
                result_from_columns(_replaced(document, (table, column), values))


@pytest.mark.parametrize("edit", ["more", "fewer", "negative", "fractional", "text"])
def test_record_counts_that_miss_the_function_table_raise(column_documents, edit):
    """The per-measurement ``records`` counts must tile the function table."""
    for document in column_documents:
        counts = list(document["measurements"]["records"])
        if edit == "more":
            counts[0] += 1
        elif edit == "fewer":
            counts[-1] -= 1
        elif edit == "negative":
            # Still sums to the table, but would hand a record to two heads.
            counts[0], counts[1] = -1, counts[0] + counts[1] + 1
        elif edit == "fractional":
            counts[0] = float(counts[0])
        else:
            counts[0] = str(counts[0])
        with pytest.raises(DECODE_ERRORS):
            result_from_columns(_replaced(document, ("measurements", "records"), counts))
