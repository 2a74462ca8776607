"""``payload_size_bytes`` is exactly the JSON encoding length it replaced.

The sizer walks the payload's structure instead of encoding it.  The oracle
below is the encode-and-measure implementation, kept verbatim: any payload
where the two disagree -- escapes, float spellings, separators, the
``default=str`` fallback, circular payloads -- fails here.
"""

import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.orchestration import events
from repro.sim.orchestration.events import payload_size_bytes


def oracle_payload_size(payload: object) -> int:
    try:
        return len(json.dumps(payload, default=str))
    except (TypeError, ValueError):
        return len(str(payload))


class Label(str):
    """A str subclass: JSON encodes its text, not its ``__str__``."""

    def __str__(self) -> str:
        return "overridden"


class Devious(str):
    """A str subclass whose Python-level methods lie about its text."""

    def __len__(self) -> int:
        return 0

    def isascii(self) -> bool:
        return True

    def encode(self, *args, **kwargs) -> bytes:
        return b""


class Opaque:
    """Reaches ``default=str``."""

    def __str__(self) -> str:
        return 'opaque "object"\n'


ASCII = [chr(code) for code in range(0x80)]
SPECIAL = [
    '"', "\\", "\x7f", "\x00", "\n", "\t", "\x1f",
    "\u00e9", "\u2028", "\ud800", "\U0001f600",
]
CHARS = st.characters(max_codepoint=0x7F) | st.sampled_from(SPECIAL) | st.characters()
TEXT = st.text(CHARS, max_size=12)
STRINGS = TEXT | TEXT.map(Label) | TEXT.map(Devious)
SCALARS = st.one_of(
    STRINGS,
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-(2**40), 2**40).map(np.int64),
    st.sets(st.integers(), max_size=3),
    st.frozensets(TEXT, max_size=2),
    st.decimals(),
    st.fractions(),
    st.just(Opaque()),
)
KEYS = STRINGS | st.integers() | st.floats() | st.booleans() | st.none()
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(STRINGS, max_size=5),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(STRINGS, children, max_size=5),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(PAYLOADS)
def test_size_equals_json_length(payload):
    assert payload_size_bytes(payload) == oracle_payload_size(payload)


@pytest.mark.parametrize(
    "payload",
    [
        "",
        "x" * 65536,
        "tab\there",
        Label("é"),
        [],
        (),
        {},
        ["a", "b", "c"],
        ["a", "b\n"],
        ["a", 1, None],
        [Label("x"), "y"],
        ("a", "b"),
        list(range(20)),
        [1, "a"],
        [float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324],
        [True, False, None, 0, -1, 2**70],
        {"a": {"b": ["c", 1.5]}, "d": []},
        {1: "int key"},
        {"s": 1, 2: "mixed"},
        {None: 0, True: 1, 1.5: 2},
        {"nested": {3: 4}},
        {Label("k"): "v"},
        {Devious("k\u00e9"): Devious("v\n"), "x": [Devious("a"), "b"]},
        [Devious("\u00e9"), Devious("plain")],
        {1, 2, 3},
        [{1, 2}],
        {"object": Opaque()},
        Opaque(),
        Decimal("1.10"),
        Fraction(1, 3),
        np.float64(0.1),
        [np.float64(0.1), np.int64(7)],
        np.arange(3),
    ],
    ids=repr,
)
def test_size_of_edge_shapes(payload):
    assert payload_size_bytes(payload) == oracle_payload_size(payload)


@pytest.mark.parametrize("char", ASCII + [c for c in SPECIAL if not c.isascii()], ids=repr)
def test_every_character_alone_and_nested(char):
    for payload in (char, f"a{char}b", [char, "a"], ("a", char), {char: char}, Label(char)):
        assert payload_size_bytes(payload) == oracle_payload_size(payload)


@pytest.mark.parametrize("container", ["list", "dict", "tuple"])
def test_nesting_deeper_than_the_guard(container):
    payload: object = "leaf"
    for _ in range(events._MAX_DEPTH + 10):
        if container == "list":
            payload = [payload, 1]
        elif container == "tuple":
            payload = (payload,)
        else:
            payload = {"child": payload, "n": 1}
    assert payload_size_bytes(payload) == oracle_payload_size(payload)


def test_self_referencing_payloads_fall_back_to_str():
    looped_list: list = [1, "a"]
    looped_list.append(looped_list)
    looped_dict: dict = {"a": 1}
    looped_dict["self"] = looped_dict
    indirect: dict = {"items": [looped_list]}
    for payload in (looped_list, looped_dict, indirect):
        assert payload_size_bytes(payload) == len(str(payload))


def test_common_shapes_build_no_json_text(monkeypatch):
    payload = {
        "chain": "x" * 4096,
        "words": ["alpha", "beta"] * 100,
        "counts": {"alpha": 3, "beta": 4},
        "results": [{"ok": True, "latency": 0.25, "error": None}],
        "matrix": ((1, 2), (3, 4)),
        "sizes": [1, 2, 3],
    }
    expected = oracle_payload_size(payload)

    def refuse(*args, **kwargs):
        raise AssertionError("the sizer encoded a common payload shape")

    monkeypatch.setattr(events.json, "dumps", refuse)
    monkeypatch.setattr(events, "_ENCODER", None)
    monkeypatch.setattr(events, "encode_basestring_ascii", refuse)
    assert payload_size_bytes(payload) == expected
