"""Shared types for the workflow orchestration executors."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional


@dataclass
class OrchestrationStats:
    """Accounting of one workflow execution's orchestration activity.

    The billing model consumes ``state_transitions`` (AWS / Google Cloud) and
    ``orchestrator_time_s`` (Azure).  ``activity_count`` is the number of
    function invocations performed, used for the invocation fee.
    """

    platform: str
    workflow: str
    invocation_id: str
    state_transitions: int = 0
    orchestrator_time_s: float = 0.0
    activity_count: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def wall_clock_s(self) -> float:
        return max(0.0, self.finished_at - self.started_at)


class OrchestrationError(Exception):
    """Raised when a workflow cannot be executed by the orchestrator."""


#: Encodes what the structural sizer does not walk itself, exactly as
#: ``json.dumps(value, default=str)`` would.
_ENCODER = json.JSONEncoder(default=str)

#: ASCII bytes JSON emits verbatim: printable, minus the quote and backslash.
_VERBATIM_ASCII = bytes(byte for byte in range(0x20, 0x7F) if byte not in b'"\\')

#: Nesting depth past which the sizer hands the payload to ``json.dumps``
#: (which also detects circular payloads).
_MAX_DEPTH = 64


class _Unsized(Exception):
    """The payload has a shape only ``json.dumps`` itself sizes exactly."""


def _verbatim(text: str) -> bool:
    """Whether JSON encodes ``text`` as itself between two quotes."""
    return text.isascii() and not text.encode("ascii").translate(None, _VERBATIM_ASCII)


def _json_length(value: object, depth: int) -> int:
    """``len(json.dumps(value, default=str))`` without building the JSON text."""
    kind = type(value)
    if kind is str:
        return len(value) + 2 if _verbatim(value) else len(encode_basestring_ascii(value))
    if kind is int:
        return len(repr(value))
    if kind is dict:
        count = len(value)
        if not count:
            return 2
        if depth >= _MAX_DEPTH:
            raise _Unsized
        try:
            keys = "".join(value)
        except TypeError:
            raise _Unsized from None  # a key that is not a str
        if _verbatim(keys):
            # "{" "}", two quotes and ": " per key, ", " between items.
            total = len(keys) + 6 * count
        else:
            total = sum(len(encode_basestring_ascii(key)) for key in value) + 4 * count
        return total + sum(map(_json_length, value.values(), repeat(depth + 1, count)))
    if kind is list or kind is tuple:
        count = len(value)
        if not count:
            return 2
        if type(value[0]) is str:
            try:
                joined = "".join(value)
            except TypeError:
                pass
            else:
                # All items verbatim: their text, two quotes and ", " each.
                if _verbatim(joined):
                    return len(joined) + 4 * count
        if depth >= _MAX_DEPTH:
            raise _Unsized
        # "[" "]" and ", " between items.
        return 2 * count + sum(map(_json_length, value, repeat(depth + 1, count)))
    if kind is float:
        if math.isfinite(value):
            return len(repr(value))
        return 8 if value > 0 else 9 if value < 0 else 3  # Infinity, -Infinity, NaN
    if kind is bool:
        return 4 if value else 5
    if value is None:
        return 4
    return len(_ENCODER.encode(value))


def payload_size_bytes(payload: object) -> int:
    """Approximate the wire size of a payload as its JSON encoding length.

    Exactly ``len(json.dumps(payload, default=str))``, computed from the
    payload's structure for the common shapes (strings, numbers, dicts with
    string keys, lists, tuples) without building the JSON text.
    """
    try:
        return _json_length(payload, 0)
    except (_Unsized, TypeError, ValueError, RecursionError):
        pass
    try:
        return len(json.dumps(payload, default=str))
    except (TypeError, ValueError):
        return len(str(payload))


def resolve_array(payload: object, array_name: str) -> List[object]:
    """Resolve the input array of a map/loop phase from the current payload.

    A dict payload is indexed by the array name; a list payload is used
    directly (it is the output of a previous map phase).  When the previous
    phase was a parallel phase, its output is a dict of branch results -- the
    coordinator then resolves the array from whichever branch produced it
    (one level of nesting).
    """
    if isinstance(payload, dict):
        value = payload.get(array_name)
        if value is None:
            for branch_result in payload.values():
                if isinstance(branch_result, dict) and array_name in branch_result:
                    value = branch_result[array_name]
                    break
        if value is None:
            raise OrchestrationError(
                f"payload has no array {array_name!r}; available keys: {sorted(payload)}"
            )
    else:
        value = payload
    if not isinstance(value, list):
        raise OrchestrationError(
            f"map/loop input {array_name!r} is not a list (got {type(value).__name__})"
        )
    return value
