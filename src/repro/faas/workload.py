"""Workload specifications: arbitrary arrival processes for experiments.

The paper evaluates benchmarks under exactly two trigger patterns -- a burst
of 30 concurrent invocations and a warm variant with a priming burst (Section
7.1).  This module generalises that dichotomy into a first-class
:class:`WorkloadSpec` describing an *arrival process*:

* **closed-loop** kinds reproduce the paper's methodology: ``burst`` fires
  ``burst_size`` invocations (almost) simultaneously, ``warm`` primes the
  container pool first and measures only the post-priming burst;
* **open-loop** kinds model sustained traffic, where arrivals do not wait for
  earlier invocations to finish: ``poisson`` (memoryless arrivals at a given
  rate), ``constant`` (a fixed-rate arrival lattice), ``ramp`` (linearly
  varying rate, e.g. a diurnal rise or drain), and ``trace`` (replay of
  recorded arrival timestamps).

A spec is a frozen dataclass, so it is hashable (usable as a campaign sweep
coordinate), picklable (shippable to ``ProcessPoolExecutor`` workers), and
fingerprintable (its :meth:`canonical` form feeds cache keys).  Open-loop
arrival times are *compiled* against a platform's
:class:`~repro.sim.rng.RandomStreams`, so a given (spec, seed) pair always
produces the same schedule regardless of worker count or execution order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..sim.rng import RandomStreams

#: Kinds whose arrivals do not wait for earlier invocations to finish.
OPEN_LOOP_KINDS = ("poisson", "constant", "ramp", "trace")

#: Kinds that reproduce the paper's closed-loop trigger methodology.
CLOSED_LOOP_KINDS = ("burst", "warm")

WORKLOAD_KINDS = CLOSED_LOOP_KINDS + OPEN_LOOP_KINDS

#: Safety cap on the number of arrivals one workload may generate; open-loop
#: specs whose expected arrival count exceeds this are rejected up front.
MAX_ARRIVALS = 100_000

#: Named stream the poisson inter-arrival draws come from (one platform is one
#: repetition, so a single stream name suffices).
ARRIVAL_STREAM = "workload:arrivals"

#: Per-process memo of compiled arrival schedules.  Poisson schedules are a
#: pure function of (spec canonical form, platform seed): the draws come from
#: the dedicated ARRIVAL_STREAM, which no other simulator component reads, so
#: serving a memoised copy leaves every other named stream's state untouched.
#: Constant and ramp schedules depend on the spec alone.  Trace workloads are
#: never memoised (their timestamps may come from a file that can change
#: between runs).  Rebuilt per worker process; never pickled across the
#: process boundary.
_ARRIVAL_MEMO: Dict[Tuple[str, Optional[int]], Tuple[float, ...]] = {}


def _memoize_arrivals(key: Tuple[str, Optional[int]], arrivals: List[float]) -> None:
    if len(_ARRIVAL_MEMO) >= 128:
        _ARRIVAL_MEMO.clear()
    _ARRIVAL_MEMO[key] = tuple(arrivals)


@dataclass(frozen=True)
class WorkloadSpec:
    """A serialisable, hashable description of one arrival process.

    ``params`` is a sorted tuple of ``(name, value)`` pairs rather than a dict
    so the spec stays frozen/hashable; use :meth:`param` or the convenience
    properties to read values.  Construct specs through the kind-specific
    classmethods (:meth:`burst`, :meth:`warm`, :meth:`poisson`,
    :meth:`constant`, :meth:`ramp`, :meth:`trace`) or :meth:`parse` -- they
    validate parameters and normalise types.
    """

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    # ------------------------------------------------------------ constructors
    @classmethod
    def _build(cls, kind: str, params: Mapping[str, object]) -> "WorkloadSpec":
        return cls(kind=kind, params=tuple(sorted(params.items())))

    @classmethod
    def burst(
        cls, burst_size: int = 30, trigger_jitter_s: float = 0.05
    ) -> "WorkloadSpec":
        """The paper's default: ``burst_size`` near-simultaneous invocations."""
        if int(burst_size) < 1:
            raise ValueError("burst size must be positive")
        if trigger_jitter_s < 0:
            raise ValueError("trigger jitter must be non-negative")
        return cls._build(
            "burst",
            {"burst_size": int(burst_size), "trigger_jitter_s": float(trigger_jitter_s)},
        )

    @classmethod
    def warm(
        cls,
        burst_size: int = 30,
        trigger_jitter_s: float = 0.05,
        priming_bursts: int = 1,
        settle_s: float = 5.0,
    ) -> "WorkloadSpec":
        """Priming burst(s), a settle delay, then one measured burst."""
        if int(burst_size) < 1:
            raise ValueError("burst size must be positive")
        if int(priming_bursts) < 1:
            raise ValueError("warm workloads need at least one priming burst")
        if settle_s < 0 or trigger_jitter_s < 0:
            raise ValueError("settle delay and trigger jitter must be non-negative")
        return cls._build(
            "warm",
            {
                "burst_size": int(burst_size),
                "trigger_jitter_s": float(trigger_jitter_s),
                "priming_bursts": int(priming_bursts),
                "settle_s": float(settle_s),
            },
        )

    @classmethod
    def poisson(cls, rate: float, duration: float) -> "WorkloadSpec":
        """Open-loop Poisson arrivals at ``rate``/s for ``duration`` seconds."""
        _check_open_loop_volume("poisson", rate, duration)
        # The cap bounds the *actual* draw, so leave sampling headroom above
        # the expected count (6 sigma covers essentially every seed).
        expected = rate * duration
        if expected + 6.0 * math.sqrt(expected) > MAX_ARRIVALS:
            raise ValueError(
                f"poisson workload expects ~{expected:.0f} arrivals, too close "
                f"to the cap of {MAX_ARRIVALS} to sample safely"
            )
        return cls._build("poisson", {"rate": float(rate), "duration": float(duration)})

    @classmethod
    def constant(cls, rate: float, duration: float) -> "WorkloadSpec":
        """Open-loop arrivals on a fixed lattice: one every ``1/rate`` seconds."""
        _check_open_loop_volume("constant", rate, duration)
        return cls._build("constant", {"rate": float(rate), "duration": float(duration)})

    @classmethod
    def ramp(
        cls, start_rate: float, end_rate: float, duration: float
    ) -> "WorkloadSpec":
        """Linearly varying rate (diurnal rise/drain shapes).

        The instantaneous rate moves from ``start_rate`` to ``end_rate`` over
        ``duration`` seconds; arrivals are placed deterministically at the
        inverse of the cumulative rate function.
        """
        if duration <= 0:
            raise ValueError("ramp duration must be positive")
        if start_rate < 0 or end_rate < 0 or (start_rate == 0 and end_rate == 0):
            raise ValueError("ramp rates must be non-negative and not both zero")
        expected = (start_rate + end_rate) / 2.0 * duration
        if expected > MAX_ARRIVALS:
            raise ValueError(
                f"ramp workload would generate ~{expected:.0f} arrivals "
                f"(cap: {MAX_ARRIVALS})"
            )
        return cls._build(
            "ramp",
            {
                "start_rate": float(start_rate),
                "end_rate": float(end_rate),
                "duration": float(duration),
            },
        )

    @classmethod
    def trace(
        cls, timestamps: Sequence[float] = (), path: Optional[Union[str, Path]] = None
    ) -> "WorkloadSpec":
        """Replay recorded arrival timestamps (seconds, relative to t=0).

        Either pass the timestamps directly or a ``path`` to a JSON file
        holding a list of numbers (or ``{"arrivals": [...]}``).  The
        timestamps are stored *inside* the spec, so the fingerprint covers the
        trace content, not the file name.
        """
        if path is not None:
            timestamps = _load_trace_file(path)
        arrivals = tuple(sorted(float(t) for t in timestamps))
        if not arrivals:
            raise ValueError("a trace workload needs at least one arrival timestamp")
        if arrivals[0] < 0:
            raise ValueError("trace timestamps must be non-negative")
        if len(arrivals) > MAX_ARRIVALS:
            raise ValueError(f"trace has {len(arrivals)} arrivals (cap: {MAX_ARRIVALS})")
        return cls._build("trace", {"timestamps": arrivals})

    # ----------------------------------------------------------------- parsing
    @classmethod
    def parse(cls, text: str) -> "WorkloadSpec":
        """Parse a CLI-style spec: ``kind`` or ``kind:key=value,key=value``.

        Examples: ``burst``, ``burst:burst_size=10``, ``warm:settle_s=2``,
        ``poisson:rate=50,duration=120``, ``constant:rate=10,duration=60``,
        ``ramp:start_rate=1,end_rate=20,duration=300``,
        ``trace:path=arrivals.json``.
        """
        text = text.strip()
        kind, _, rest = text.partition(":")
        kind = kind.strip().lower()
        if kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {kind!r} (expected one of {', '.join(WORKLOAD_KINDS)})"
            )
        params: Dict[str, object] = {}
        if rest.strip():
            for assignment in rest.split(","):
                key, sep, value = assignment.partition("=")
                if not sep or not key.strip():
                    raise ValueError(f"malformed workload parameter {assignment!r}")
                params[key.strip()] = _coerce(value.strip())
        try:
            if kind == "burst":
                return cls.burst(**params)  # type: ignore[arg-type]
            if kind == "warm":
                return cls.warm(**params)  # type: ignore[arg-type]
            if kind == "poisson":
                return cls.poisson(**params)  # type: ignore[arg-type]
            if kind == "constant":
                return cls.constant(**params)  # type: ignore[arg-type]
            if kind == "ramp":
                return cls.ramp(**params)  # type: ignore[arg-type]
            return cls.trace(**params)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ValueError(f"bad parameters for {kind!r} workload: {exc}") from exc

    # --------------------------------------------------------------- accessors
    def param(self, name: str, default: object = None) -> object:
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def is_open_loop(self) -> bool:
        return self.kind in OPEN_LOOP_KINDS

    @property
    def burst_size(self) -> int:
        """Burst size for closed-loop kinds (1 for open-loop kinds)."""
        return int(self.param("burst_size", 1))  # type: ignore[arg-type]

    @property
    def settle_s(self) -> float:
        return float(self.param("settle_s", 5.0))  # type: ignore[arg-type]

    @property
    def trigger_jitter_s(self) -> float:
        return float(self.param("trigger_jitter_s", 0.05))  # type: ignore[arg-type]

    @property
    def duration_s(self) -> float:
        """Nominal workload duration (0 for closed-loop kinds)."""
        if self.kind == "trace":
            timestamps = self.param("timestamps", ())
            return float(timestamps[-1]) if timestamps else 0.0  # type: ignore[index]
        return float(self.param("duration", 0.0))  # type: ignore[arg-type]

    # ------------------------------------------------------------ serialisation
    def canonical(self) -> str:
        """Stable, human-readable identity string (used in fingerprints)."""
        if self.kind == "trace":
            # The canonical string must distinguish different trace contents
            # (cell keys and sweep dedup rely on it), but stay short enough
            # for table labels -- so hash the timestamps instead of listing
            # them.
            timestamps = self.param("timestamps", ())
            digest = hashlib.sha256(
                json.dumps(list(timestamps)).encode()  # type: ignore[arg-type]
            ).hexdigest()[:12]
            return (
                f"trace(n={len(timestamps)},end={self.duration_s:g},"  # type: ignore[arg-type]
                f"sha256={digest})"
            )
        rendered = ",".join(f"{key}={value:g}" for key, value in self.params)
        return f"{self.kind}({rendered})"

    def to_dict(self) -> Dict[str, object]:
        params: Dict[str, object] = {}
        for key, value in self.params:
            params[key] = list(value) if isinstance(value, tuple) else value
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "WorkloadSpec":
        kind = str(document["kind"])
        params = dict(document.get("params", {}))  # type: ignore[arg-type]
        if kind == "trace":
            return cls.trace(timestamps=params.get("timestamps", ()))  # type: ignore[arg-type]
        factories = {
            "burst": cls.burst,
            "warm": cls.warm,
            "poisson": cls.poisson,
            "constant": cls.constant,
            "ramp": cls.ramp,
        }
        if kind not in factories:
            raise ValueError(f"unknown workload kind {kind!r}")
        return factories[kind](**params)  # type: ignore[arg-type]

    # ------------------------------------------------------------- compilation
    def arrival_times(self, streams: RandomStreams) -> List[float]:
        """Compile the open-loop arrival schedule (seconds, relative to t=0).

        Closed-loop kinds do not pre-compile arrivals (their jitter draws
        happen per invocation inside the trigger, matching the paper
        methodology exactly) and raise.
        """
        if self.kind == "poisson":
            key = (self.canonical(), streams.seed)
            cached = _ARRIVAL_MEMO.get(key)
            if cached is not None:
                return list(cached)
            rate = float(self.param("rate"))  # type: ignore[arg-type]
            duration = float(self.param("duration"))  # type: ignore[arg-type]
            arrivals: List[float] = []
            clock = 0.0
            while True:
                clock += streams.exponential(ARRIVAL_STREAM, 1.0 / rate)
                if clock >= duration:
                    break
                if len(arrivals) >= MAX_ARRIVALS:
                    # The volume check bounds the *expected* count; an unlucky
                    # draw near the cap must fail loudly rather than silently
                    # truncate the schedule before its nominal duration.
                    raise ValueError(
                        f"poisson workload exceeded {MAX_ARRIVALS} arrivals "
                        f"at t={clock:.1f}s of {duration:g}s; lower rate or duration"
                    )
                arrivals.append(clock)
            _memoize_arrivals(key, arrivals)
            return arrivals
        if self.kind == "constant":
            key = (self.canonical(), None)
            cached = _ARRIVAL_MEMO.get(key)
            if cached is not None:
                return list(cached)
            rate = float(self.param("rate"))  # type: ignore[arg-type]
            duration = float(self.param("duration"))  # type: ignore[arg-type]
            count = int(math.ceil(rate * duration - 1e-9))
            arrivals = [index / rate for index in range(count)]
            _memoize_arrivals(key, arrivals)
            return arrivals
        if self.kind == "ramp":
            key = (self.canonical(), None)
            cached = _ARRIVAL_MEMO.get(key)
            if cached is not None:
                return list(cached)
            arrivals = self._ramp_arrivals()
            _memoize_arrivals(key, arrivals)
            return arrivals
        if self.kind == "trace":
            return [float(t) for t in self.param("timestamps", ())]  # type: ignore[union-attr]
        raise ValueError(f"closed-loop workload {self.kind!r} has no arrival schedule")

    def _ramp_arrivals(self) -> List[float]:
        start = float(self.param("start_rate"))  # type: ignore[arg-type]
        end = float(self.param("end_rate"))  # type: ignore[arg-type]
        duration = float(self.param("duration"))  # type: ignore[arg-type]
        # Cumulative arrivals Lambda(t) = start*t + (end-start)*t^2/(2*duration);
        # the n-th arrival sits at Lambda^-1(n).
        slope = (end - start) / duration
        total = int(math.floor(start * duration + slope * duration * duration / 2.0))
        arrivals: List[float] = []
        for n in range(total):
            if abs(slope) < 1e-12:
                arrivals.append(n / start)
                continue
            discriminant = start * start + 2.0 * slope * n
            t = (math.sqrt(max(discriminant, 0.0)) - start) / slope
            arrivals.append(min(max(t, 0.0), duration))
        return arrivals

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.canonical()


def _coerce(value: str) -> object:
    """CLI parameter values: int where possible, then float, else string."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def _check_open_loop_volume(kind: str, rate: float, duration: float) -> None:
    if rate <= 0:
        raise ValueError(f"{kind} rate must be positive")
    if duration <= 0:
        raise ValueError(f"{kind} duration must be positive")
    if rate * duration > MAX_ARRIVALS:
        raise ValueError(
            f"{kind} workload would generate ~{rate * duration:.0f} arrivals "
            f"(cap: {MAX_ARRIVALS})"
        )


def _load_trace_file(path: Union[str, Path]) -> Sequence[float]:
    document = json.loads(Path(path).read_text())
    if isinstance(document, dict):
        document = document.get("arrivals", [])
    if not isinstance(document, list):
        raise ValueError(f"trace file {path} must hold a JSON list of timestamps")
    return [float(entry) for entry in document]
