"""The cell cache's column layout against the row result document.

A cache entry stores ``result_to_columns(document)``; a cache hit decodes it
with ``result_from_columns``.  Nothing downstream may tell the difference:
``result_to_dict`` of the decoded result must be the original document, byte
for byte as sorted-key JSON, for every benchmark and platform, open-loop
cells included; arbitrary float values decode exactly as from the row
document, also from packed float64 columns, and a packed column that does
not decode is a miss.  The entry layout is versioned apart from
``CACHE_VERSION``, so a layout change moves no fingerprint.
"""

import json
import struct
from binascii import a2b_base64, b2a_base64

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks import ALL_BENCHMARKS
from repro.faas import CampaignSpec, WorkloadSpec, probe_cache, run_campaign
from repro.faas.campaign import (
    CACHE_VERSION, _cache_path, execute_job_inline, iter_cached_cells,
)
from repro.faas.results import (
    DECODE_ERRORS, result_from_columns, result_from_dict, result_to_columns,
    result_to_dict,
)


def _canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def _round_trip(document):
    """The document as a cache hit serves it: encode, store, load, decode."""
    entry = json.loads(json.dumps(result_to_columns(document)))
    return result_to_dict(result_from_columns(entry))


def _documents(spec: CampaignSpec):
    return {
        job: json.loads(json.dumps(execute_job_inline(job))) for job in spec.expand()
    }


@pytest.fixture(scope="module")
def burst_documents():
    """Every benchmark on every cloud, at a small burst."""
    return _documents(CampaignSpec(
        benchmarks=tuple(sorted(ALL_BENCHMARKS)), platforms=("aws", "gcp", "azure"),
        seeds=(0,), burst_size=2,
    ))


@pytest.fixture(scope="module")
def poisson_document():
    [document] = _documents(CampaignSpec(
        benchmarks=("function_chain",), platforms=("aws",), seeds=(0,),
        workloads=(WorkloadSpec.poisson(rate=2, duration=4),), repetitions=2,
    )).values()
    return document


def test_every_benchmark_and_cloud_round_trips_bit_exact(burst_documents):
    assert len(burst_documents) == 3 * len(ALL_BENCHMARKS)
    for job, document in burst_documents.items():
        assert "cost" in document, job
        assert _canonical(_round_trip(document)) == _canonical(document), job


def test_open_loop_cell_round_trips_bit_exact(poisson_document):
    assert "open_loop" in poisson_document and "cost" in poisson_document
    assert any(
        "arrival_s" in measurement.get("metadata", {})
        for measurement in poisson_document["measurements"]
    )
    assert _canonical(_round_trip(poisson_document)) == _canonical(poisson_document)


def test_names_are_interned_and_derived_summaries_dropped(burst_documents):
    for document in burst_documents.values():
        encoded = result_to_columns(document)
        assert len(encoded["names"]) == len(set(encoded["names"]))
        assert set(encoded).isdisjoint({"summary", "open_loop", "cost_per_1000"})
        assert len(json.dumps(encoded)) < len(json.dumps(document))


_floats = st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308]) | st.floats()


def _float_sites(document):
    """Every float a decoder reads back from a row document, as (node, key)."""
    for measurement in document["measurements"]:
        if "metadata" in measurement:  # open-loop cells only
            yield measurement["metadata"], "arrival_s"
        for record in measurement["functions"]:
            yield record, "start"
            yield record, "end"
    for entry in document["orchestration"]:
        for key in ("orchestrator_time_s", "started_at", "finished_at"):
            yield entry, key
    for entry in document["scaling_profile"]:
        yield entry, "time"
    per_execution = document["cost"]["per_execution"]
    for key in per_execution:
        if key != "platform":
            yield per_execution, key


def _outcome(decode, document):
    """The decoded result by ``repr`` (nan, -0.0 and every float bit show),
    or the decode error it raised."""
    try:
        return repr(decode(document))
    except DECODE_ERRORS as error:
        return type(error)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_arbitrary_floats_decode_exactly_as_the_row_document(poisson_document, data):
    """nan, infinities, signed zeros, subnormals and huge values survive
    the column layout: a cache hit decodes to the very result the row
    document does, or fails the same way."""
    document = json.loads(json.dumps(poisson_document))
    sites = list(_float_sites(document))
    for node, key in data.draw(st.lists(st.sampled_from(sites), min_size=1, max_size=4)):
        node[key] = data.draw(_floats)
    entry = json.loads(json.dumps(result_to_columns(document)))
    assert _outcome(result_from_columns, entry) == _outcome(result_from_dict, document)


_extreme_floats = st.sampled_from([
    float("inf"), float("-inf"), float("nan"), 1.7e308, -1.7e308, 1e308,
]) | _floats


@pytest.fixture(scope="module")
def chain_document():
    [document] = _documents(_spec()).values()
    return document


@settings(max_examples=200, deadline=None)
@given(data=st.data(), open_loop=st.booleans())
def test_a_decoded_document_always_re_encodes(chain_document, poisson_document,
                                              data, open_loop):
    """Whatever floats a document holds, ``result_to_dict`` of its decoded
    result succeeds, or the decode itself raised one of DECODE_ERRORS.  A
    non-finite runtime, or runtimes whose mean or spread overflows a float,
    is a malformed document -- a cache miss -- never a crash in the
    summary row."""
    document = json.loads(json.dumps(poisson_document if open_loop else chain_document))
    sites = list(_float_sites(document))
    for node, key in data.draw(st.lists(st.sampled_from(sites), min_size=1, max_size=4)):
        node[key] = data.draw(_extreme_floats)
    for decode, encoded in ((result_from_dict, document),
                            (result_from_columns, result_to_columns(document))):
        try:
            result = decode(json.loads(json.dumps(encoded)))
        except DECODE_ERRORS:
            continue
        result_to_dict(result)


def test_a_non_finite_runtime_is_a_decode_error(poisson_document):
    for key, value in (("end", float("inf")), ("start", float("-inf"))):
        document = json.loads(json.dumps(poisson_document))
        document["measurements"][0]["functions"][0][key] = value
        with pytest.raises(ValueError, match="no finite summary"):
            result_from_dict(document)
    # Finite runtimes near the float maximum overflow the mean.
    document = json.loads(json.dumps(poisson_document))
    for measurement in document["measurements"]:
        measurement["functions"][-1]["end"] = 1.7e308
    with pytest.raises(ValueError, match="out-of-range"):
        result_from_dict(document)


# ------------------------------------------------------------- entry layout
def _spec():
    return CampaignSpec(
        benchmarks=("function_chain",), platforms=("aws",), seeds=(0,), burst_size=2,
    )


def test_a_row_layout_entry_is_a_miss_and_is_rewritten(tmp_path):
    """An entry in the earlier layout -- the row document, stamped with
    CACHE_VERSION -- sits at the same fingerprint, since the layout change
    moved none.  It is a miss, and the recompute rewrites it as columns."""
    [job] = _spec().expand()
    document = json.loads(json.dumps(execute_job_inline(job)))
    path = _cache_path(tmp_path, job)
    path.write_text(json.dumps({
        "version": CACHE_VERSION, "fingerprint": job.fingerprint(),
        "job": job.to_dict(), "result": document,
    }))
    assert not probe_cache(tmp_path, job)
    assert run_campaign(_spec(), workers=1, cache_dir=tmp_path).cache_hits == 0
    entry = json.loads(path.read_text())
    assert entry["version"] != CACHE_VERSION
    assert entry["result"] == json.loads(json.dumps(result_to_columns(document)))
    assert probe_cache(tmp_path, job)
    assert run_campaign(_spec(), workers=1, cache_dir=tmp_path).cache_hits == 1


def test_a_column_entry_fails_a_row_readers_version_check(tmp_path):
    """A reader of the row layout accepts ``version == CACHE_VERSION`` only,
    so it sees a column entry as a miss."""
    [job] = _spec().expand()
    run_campaign(_spec(), workers=1, cache_dir=tmp_path)
    entry = json.loads(_cache_path(tmp_path, job).read_text())
    assert entry["fingerprint"] == job.fingerprint()
    assert CACHE_VERSION == 3 and entry["version"] != 3
    # Had it skipped the check, its row decoder would still reject the entry.
    with pytest.raises(DECODE_ERRORS):
        result_from_dict(entry["result"])


def test_a_deeply_nested_entry_is_a_miss(tmp_path):
    """Nesting past the JSON parser's recursion limit is a corrupt entry
    like any other, not a RecursionError for every cache reader."""
    [job] = _spec().expand()
    first = run_campaign(_spec(), workers=1, cache_dir=tmp_path)
    path = _cache_path(tmp_path, job)
    path.write_text("[" * 100_000)
    assert list(iter_cached_cells(tmp_path, [job])) == [(job, None, None)]
    assert not probe_cache(tmp_path, job)
    rerun = run_campaign(_spec(), workers=1, cache_dir=tmp_path)
    assert rerun.cache_hits == 0
    assert _canonical(rerun.to_dict(include_results=True)["cells"]) == \
        _canonical(first.to_dict(include_results=True)["cells"])
    assert probe_cache(tmp_path, job)


# --------------------------------------------------------- packed float columns
#: Floats whose text form is easiest to get wrong: the sign of zero, the
#: smallest subnormal, a huge value, and the three non-finite values.
_SPECIAL_FLOATS = [-0.0, 5e-324, 1.5e300, float("nan"), float("inf"), float("-inf")]


def _unchecked_float_sites(document):
    """Float fields no decoder validates: orchestration timestamps and
    scaling-profile times."""
    for entry in document["orchestration"]:
        yield entry, "started_at"
        yield entry, "finished_at"
    for sample in document["scaling_profile"]:
        yield sample, "time"


def test_packed_columns_keep_every_float_bit(poisson_document):
    document = json.loads(json.dumps(poisson_document))
    sites = list(_unchecked_float_sites(document))
    assert len(sites) >= len(_SPECIAL_FLOATS)
    for index, (node, key) in enumerate(sites):
        node[key] = _SPECIAL_FLOATS[index % len(_SPECIAL_FLOATS)]
    encoded = result_to_columns(document)
    for table, column in (("functions", "start"), ("functions", "end"),
                          ("orchestration", "started_at"), ("scaling_profile", "time")):
        assert set(encoded[table][column]) == {"f8"}, (table, column)
    decoded = result_to_dict(result_from_columns(json.loads(json.dumps(encoded))))
    expected = [struct.pack("<d", node[key]) for node, key in sites]
    assert [struct.pack("<d", node[key])
            for node, key in _unchecked_float_sites(decoded)] == expected
    assert _canonical(decoded["measurements"]) == _canonical(document["measurements"])


def test_a_column_holding_an_int_stays_a_json_array(chain_document):
    document = json.loads(json.dumps(chain_document))
    document["scaling_profile"][0]["containers"] = 3
    encoded = result_to_columns(document)
    assert isinstance(encoded["scaling_profile"]["containers"], list)
    assert isinstance(encoded["scaling_profile"]["time"], dict)
    decoded = result_to_dict(result_from_columns(json.loads(json.dumps(encoded))))
    assert _canonical(decoded) == _canonical(result_to_dict(result_from_dict(document)))
    assert type(decoded["scaling_profile"][0]["containers"]) is int


def _reencoded(f8, edit):
    return b2a_base64(edit(a2b_base64(f8)), newline=False).decode()


#: Packed columns that must not decode.
MALFORMED_PACKED = {
    "bad_base64": lambda column: column.update(f8="!" + column["f8"][1:]),
    "stray_character": lambda column: column.update(f8=column["f8"][:4] + " " + column["f8"][4:]),
    "truncated_text": lambda column: column.update(f8=column["f8"][:-1]),
    "not_whole_float64s": lambda column: column.update(
        f8=_reencoded(column["f8"], lambda raw: raw[:-1])),
    "extra_key": lambda column: column.update(extra=1),
    "f8_missing": lambda column: column.pop("f8"),
    "f8_not_a_string": lambda column: column.update(f8=[0.0]),
}


@pytest.fixture(scope="module")
def cached_entry(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    run_campaign(_spec(), workers=1, cache_dir=cache)
    [job] = _spec().expand()
    return _cache_path(cache, job).read_text()


@pytest.mark.parametrize("shape", sorted(MALFORMED_PACKED))
@pytest.mark.parametrize("column", [("functions", "end"), ("scaling_profile", "time")])
def test_a_malformed_packed_column_is_a_cache_miss(cached_entry, tmp_path, shape, column):
    entry = json.loads(cached_entry)
    table, key = column
    MALFORMED_PACKED[shape](entry["result"][table][key])
    with pytest.raises(DECODE_ERRORS):
        result_from_columns(entry["result"])
    [job] = _spec().expand()
    _cache_path(tmp_path, job).write_text(json.dumps(entry))
    assert not probe_cache(tmp_path, job)
