"""First-class platform identity: :class:`PlatformSpec` and the profile registry.

The paper's evaluation grid is three clouds times two measurement eras
(July 2022 and January 2024).  This module turns that fixed grid into an open
scenario space: a platform is identified by a frozen, picklable,
fingerprintable **spec** ``(base, era, overrides)`` instead of a bare string,
and the profiles behind the specs come from a pluggable registry.

Spec grammar (compact string form)::

    aws                                   # base platform, default era
    aws@2022                              # pin a measurement era
    azure@2024:cold_start=x1.5            # multiplicative override (x-prefix)
    aws:orchestration.transition_latency_s=0.055,region=eu-west
    my-scenario@2022:memory=512           # scenario name from a scenario file

Overrides are resolved against :class:`~.base.PlatformProfile`'s nested
dataclasses: a dotted path (``scaling.cold_start_median_s``) addresses a field
directly, a bare name is accepted when it is a documented alias
(``cold_start``) or unique across the profile's field namespaces
(``dispatch_base_s``).  ``x``-prefixed values multiply the profile's value;
everything else replaces it.  Resolution happens at parse time, so the
canonical form -- and therefore every fingerprint -- always names full paths.

The registry maps ``(platform, era)`` pairs to profile factories
(:func:`register_platform`, :func:`register_era`) and named **scenarios** to
specs (:func:`register_scenario`, :func:`load_scenarios`).  Scenario names are
parse-time macros: ``PlatformSpec.parse`` expands them into self-contained
specs, so cells shipped to campaign worker processes never depend on the
parent process's scenario registry.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    get_type_hints,
)

from .base import PlatformProfile

#: Era assumed when a spec does not pin one (the paper's newer campaign).
DEFAULT_ERA = "2024"

#: Bare-name shortcuts for the most commonly tweaked parameters.
PATH_ALIASES: Dict[str, str] = {
    "cold_start": "scaling.cold_start_median_s",
    "memory": "default_memory_mb",
}

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.\-]*$")
_ERA_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]*$")
_STRING_VALUE_RE = re.compile(r"^[A-Za-z0-9_.\-/]+$")

# ----------------------------------------------------------------- overrides


@lru_cache(maxsize=None)
def _nested_profile_classes() -> Dict[str, type]:
    """The dataclass-typed fields of :class:`PlatformProfile` (override groups).

    Cached for the process lifetime: the profile's shape is static, and this
    runs once per override key during parsing (``get_type_hints`` resolves
    the PEP-563 string annotations, which is not free).
    """
    hints = get_type_hints(PlatformProfile)
    return {
        f.name: hints[f.name]
        for f in fields(PlatformProfile)
        if is_dataclass(hints.get(f.name))
    }


def resolve_override_path(key: str) -> str:
    """Normalise an override key to a full dotted path into the profile.

    Accepts full dotted paths, documented aliases (``cold_start``), and bare
    field names that are unique across the profile and its nested profile
    dataclasses.  Raises ``KeyError`` for unknown names and ``ValueError``
    for ambiguous ones, naming the candidates.
    """
    key = key.strip()
    if not key:
        raise KeyError("empty override path")
    if key in PATH_ALIASES:
        return PATH_ALIASES[key]
    nested = _nested_profile_classes()
    if "." in key:
        head, _, rest = key.partition(".")
        if head not in nested:
            raise KeyError(
                f"unknown override group {head!r} in {key!r}; "
                f"groups: {sorted(nested)}"
            )
        group_fields = {f.name for f in fields(nested[head])}
        if rest not in group_fields:
            raise KeyError(
                f"unknown field {rest!r} in {head!r}; valid fields: "
                f"{sorted(group_fields)}"
            )
        return key
    top_level = {
        f.name for f in fields(PlatformProfile) if f.name not in nested
    } - {"cpu_model"}
    if key in top_level:
        return key
    if key in nested:
        group_fields = sorted(f.name for f in fields(nested[key]))
        raise KeyError(
            f"{key!r} is a nested profile, not a scalar field; "
            f"address one of its fields, e.g. {key}.{group_fields[0]}"
        )
    candidates = [
        f"{group}.{key}"
        for group, cls in sorted(nested.items())
        if key in {f.name for f in fields(cls)}
    ]
    if len(candidates) == 1:
        return candidates[0]
    if candidates:
        raise ValueError(
            f"ambiguous override {key!r}: matches {', '.join(candidates)}; "
            f"use the full dotted path"
        )
    raise KeyError(
        f"unknown override field {key!r}; use a dotted path like "
        f"'scaling.cold_start_median_s' (groups: {sorted(nested)}; "
        f"top-level fields: {sorted(top_level)}; aliases: {sorted(PATH_ALIASES)})"
    )


def _parse_override_value(text: str) -> Tuple[object, bool]:
    """``(value, scale)`` from a compact value string (``x1.5`` multiplies)."""
    text = text.strip()
    if text.startswith("x") and len(text) > 1:
        body = text[1:]
        try:
            return int(body), True
        except ValueError:
            pass
        try:
            return float(body), True
        except ValueError:
            pass  # not a multiplier -- fall through to a literal value
    if text.lower() in ("true", "false"):
        return text.lower() == "true", False
    try:
        return int(text), False
    except ValueError:
        pass
    try:
        return float(text), False
    except ValueError:
        return text, False


def _render_override_value(value: object, scale: bool) -> str:
    if scale:
        return f"x{value!r}" if isinstance(value, float) else f"x{value}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class Override:
    """One resolved override: a dotted path, a value, and how it is applied.

    ``scale=True`` multiplies the profile's value (the ``x1.5`` grammar);
    ``scale=False`` replaces it.  The rendered form must re-parse to the same
    override so canonical spec strings stay lossless.
    """

    path: str
    value: object
    scale: bool = False

    def __post_init__(self) -> None:
        if self.scale and (isinstance(self.value, bool) or not isinstance(self.value, (int, float))):
            raise ValueError(f"multiplicative override {self.path!r} needs a numeric factor")
        if isinstance(self.value, str) and not _STRING_VALUE_RE.match(self.value):
            raise ValueError(
                f"override value {self.value!r} for {self.path!r} contains characters "
                f"the spec grammar reserves (allowed: letters, digits, '_.-/')"
            )
        rendered = _render_override_value(self.value, self.scale)
        if _parse_override_value(rendered) != (self.value, self.scale):
            raise ValueError(
                f"override value {self.value!r} for {self.path!r} does not survive "
                f"the spec grammar (renders as {rendered!r})"
            )

    def rendered(self) -> str:
        return f"{self.path}={_render_override_value(self.value, self.scale)}"

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "value": self.value, "scale": self.scale}

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "Override":
        return cls(
            path=resolve_override_path(str(document["path"])),
            value=document["value"],
            scale=bool(document.get("scale", False)),
        )


def _combine(path: str, current: object, override: Override) -> object:
    """The new field value after applying ``override`` to ``current``."""
    if override.scale:
        if isinstance(current, bool) or not isinstance(current, (int, float)):
            raise ValueError(
                f"cannot scale non-numeric field {path!r} "
                f"(current value {current!r}) with {override.rendered()!r}"
            )
        scaled = current * override.value
        return int(round(scaled)) if isinstance(current, int) else float(scaled)
    value = override.value
    if isinstance(current, bool):
        if not isinstance(value, bool):
            raise ValueError(f"field {path!r} needs a boolean, got {value!r}")
        return value
    if isinstance(current, int):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"field {path!r} needs a number, got {value!r}")
        if float(value) != int(value):
            raise ValueError(f"field {path!r} needs an integer, got {value!r}")
        return int(value)
    if isinstance(current, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"field {path!r} needs a number, got {value!r}")
        return float(value)
    if isinstance(current, str):
        if not isinstance(value, str):
            raise ValueError(f"field {path!r} needs a string, got {value!r}")
        return value
    raise ValueError(f"field {path!r} of type {type(current).__name__} is not overridable")


def _apply_override(obj: object, parts: Sequence[str], override: Override) -> object:
    """Return a copy of dataclass ``obj`` with ``parts`` replaced per ``override``."""
    valid = {f.name for f in fields(obj)}
    name = parts[0]
    if name not in valid:
        raise KeyError(
            f"unknown field {name!r} in override {override.path!r}; "
            f"valid fields: {sorted(valid)}"
        )
    current = getattr(obj, name)
    if len(parts) == 1:
        changed = _combine(override.path, current, override)
    else:
        if not is_dataclass(current):
            raise KeyError(
                f"field {name!r} in override {override.path!r} is not a nested profile"
            )
        changed = _apply_override(current, parts[1:], override)
    if isinstance(obj, PlatformProfile):
        return obj.with_overrides(**{name: changed})
    return replace(obj, **{name: changed})


# -------------------------------------------------------------------- spec


@dataclass(frozen=True)
class PlatformSpec:
    """A frozen, serialisable identity of one (possibly hypothetical) platform.

    ``base`` names a registered platform, ``era`` pins a measurement era
    (``None`` = :data:`DEFAULT_ERA` at resolution time), and ``overrides``
    tweak individual profile parameters.  Specs are hashable (campaign sweep
    coordinates), picklable (worker processes), and fingerprintable (cache
    keys); :meth:`resolve` turns one into a concrete
    :class:`~.base.PlatformProfile`.
    """

    base: str
    era: Optional[str] = None
    overrides: Tuple[Override, ...] = ()

    def __post_init__(self) -> None:
        if not self.base or not _NAME_RE.match(self.base):
            raise ValueError(f"invalid platform name {self.base!r}")
        if self.era is not None and not _ERA_RE.match(self.era):
            raise ValueError(f"invalid era {self.era!r}")
        ordered = tuple(sorted(self.overrides, key=lambda o: o.path))
        paths = [o.path for o in ordered]
        if len(set(paths)) != len(paths):
            dupes = sorted({p for p in paths if paths.count(p) > 1})
            raise ValueError(f"duplicate override path(s): {', '.join(dupes)}")
        object.__setattr__(self, "overrides", ordered)

    # ------------------------------------------------------------ construction
    @classmethod
    def parse(cls, text: str) -> "PlatformSpec":
        """Parse the compact string form ``base[@era][:path=value,...]``.

        Scenario names registered via :func:`register_scenario` /
        :func:`load_scenarios` are expanded in place, so the returned spec is
        always self-contained.
        """
        _ensure_builtins()
        text = text.strip()
        head, _, overrides_part = text.partition(":")
        base, at, era = head.partition("@")
        base = base.strip()
        era = era.strip() if at else None
        if at and not era:
            raise ValueError(f"malformed platform spec {text!r}: empty era after '@'")
        overrides: List[Override] = []
        if overrides_part.strip():
            for assignment in overrides_part.split(","):
                key, sep, value = assignment.partition("=")
                if not sep or not key.strip():
                    raise ValueError(
                        f"malformed override {assignment!r} in platform spec {text!r}"
                    )
                parsed, scale = _parse_override_value(value)
                overrides.append(
                    Override(path=resolve_override_path(key), value=parsed, scale=scale)
                )
        spec = cls(base=base, era=era, overrides=tuple(overrides))
        return _expand(spec)

    @classmethod
    def coerce(cls, value: Union[str, "PlatformSpec", Mapping[str, object]]) -> "PlatformSpec":
        """Accept a spec, a spec string, or a spec dict -- always returns a spec."""
        if isinstance(value, PlatformSpec):
            _ensure_builtins()
            return _expand(value)
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise TypeError(f"cannot interpret {value!r} as a platform spec")

    def with_era(self, era: Optional[str]) -> "PlatformSpec":
        """Copy of this spec pinned to ``era``."""
        return replace(self, era=era)

    def with_default_era(self, era: Optional[str] = None) -> "PlatformSpec":
        """Era-resolve this spec: keep a pinned era, apply ``era`` otherwise.

        An era both pinned in the spec and passed as ``era`` must agree; an
        era-less spec falls back to ``era`` or ``DEFAULT_ERA``.
        """
        if era is not None and self.era is not None and str(era) != self.era:
            raise ValueError(
                f"platform spec pins era {self.era!r} but era={era!r} was "
                f"also given; drop one of them"
            )
        return self.with_era(self.era or (str(era) if era is not None else DEFAULT_ERA))

    # ------------------------------------------------------------- identity
    @property
    def is_plain(self) -> bool:
        """True when the spec is just a base platform name (no era, no overrides)."""
        return self.era is None and not self.overrides

    @property
    def label(self) -> str:
        """Era-less canonical form -- the 'platform' column of tables and keys."""
        return self.canonical(include_era=False)

    def canonical(self, include_era: bool = True) -> str:
        """Stable string form; parsing it reproduces the spec exactly."""
        text = self.base
        if include_era and self.era is not None:
            text += f"@{self.era}"
        if self.overrides:
            text += ":" + ",".join(o.rendered() for o in self.overrides)
        return text

    def fingerprint(self) -> str:
        """SHA-256 over the canonical dict form (cache keys, golden pins)."""
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    # --------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, object]:
        return {
            "base": self.base,
            "era": self.era,
            "overrides": [o.to_dict() for o in self.overrides],
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "PlatformSpec":
        """Rebuild a spec from :meth:`to_dict` output or the compact mapping form.

        The compact form (used by scenario files) maps override keys to values
        directly: ``{"overrides": {"cold_start": "x1.5", "region": "eu"}}``.
        """
        _ensure_builtins()
        overrides_doc = document.get("overrides", [])
        overrides: List[Override] = []
        if isinstance(overrides_doc, Mapping):
            for key, raw in overrides_doc.items():
                if isinstance(raw, str):
                    value, scale = _parse_override_value(raw)
                else:
                    value, scale = raw, False
                overrides.append(
                    Override(path=resolve_override_path(str(key)), value=value, scale=scale)
                )
        else:
            overrides = [Override.from_dict(entry) for entry in overrides_doc]  # type: ignore[union-attr]
        era = document.get("era")
        spec = cls(
            base=str(document["base"]),
            era=str(era) if era is not None else None,
            overrides=tuple(overrides),
        )
        return _expand(spec)

    # ------------------------------------------------------------- resolution
    def resolve(self) -> PlatformProfile:
        """Materialise the profile: registry lookup plus override application."""
        _ensure_builtins()
        spec = _expand(self)
        era = spec.era if spec.era is not None else DEFAULT_ERA
        if era not in _ERAS:
            raise KeyError(f"unknown era {era!r}; available: {available_eras()}")
        factory = _FACTORIES.get((spec.base, era)) or _FACTORIES.get((spec.base, None))
        if factory is None:
            if spec.base in _PLATFORM_NAMES:
                # Registered, but only with era-specific factories that do
                # not cover this era (no era-less default exists).
                eras_for_base = sorted(
                    e for (name, e) in _FACTORIES if name == spec.base and e is not None
                )
                raise KeyError(
                    f"platform {spec.base!r} is not available in era {era!r}; "
                    f"it is registered only for era(s): {eras_for_base}"
                )
            raise KeyError(
                f"unknown platform {spec.base!r}; available platforms: "
                f"{available_platforms()}, scenarios: {sorted(_SCENARIOS)}"
            )
        profile = factory()
        for override in spec.overrides:
            profile = _apply_override(profile, override.path.split("."), override)
        return profile

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.canonical()


def resolve_platform(spec: Union[str, PlatformSpec, Mapping[str, object]]) -> PlatformProfile:
    """One-call convenience: coerce ``spec`` and resolve it to a profile."""
    return PlatformSpec.coerce(spec).resolve()


# ------------------------------------------------------------------ registry

_FACTORIES: Dict[Tuple[str, Optional[str]], Callable[[], PlatformProfile]] = {}
_PLATFORM_NAMES: List[str] = []
_ERAS: List[str] = []
_SCENARIOS: Dict[str, PlatformSpec] = {}
#: Bumped by every :func:`register_scenario`, so memos of resolved specs
#: can key on it (see :func:`scenario_epoch`).
_SCENARIO_EPOCH = 0
_BUILTINS_LOADED = False
#: Platform/era names available in *any* process (registered by importing
#: .profiles), as opposed to runtime registrations that live only in the
#: registering process.  Campaigns use this to decide which cells may ship
#: to worker processes.
_BUILTIN_PLATFORMS: frozenset = frozenset()
_BUILTIN_ERAS: frozenset = frozenset()
#: ``(name, era)`` factory keys registered *after* the builtins loaded --
#: including overwrites of builtin names.  Cells resolving through any of
#: these must not ship to worker processes.
_RUNTIME_KEYS: set = set()


def _ensure_builtins() -> None:
    """Make sure the builtin platforms/eras are registered (idempotent).

    The builtin registrations live in :mod:`.profiles` (which imports the
    concrete profile factories); importing it lazily keeps this module free of
    import cycles while guaranteeing that ``PlatformSpec.parse("aws")`` works
    no matter which module was imported first.  The module body of
    ``profiles`` calls :func:`_finalize_builtins` after its registrations, so
    the loaded flag flips at exactly that point no matter which import path
    ran it -- and a failing import stays visible and retryable instead of
    degrading into "unknown platform 'aws'" for the rest of the process.
    """
    if _BUILTINS_LOADED:
        return
    from . import profiles  # noqa: F401  (registers + finalizes the builtins)


def _finalize_builtins(platforms: Sequence[str], eras: Sequence[str]) -> None:
    """Called by :mod:`.profiles` once the builtin registrations are in.

    From this point on, further registrations -- including overwrites of
    builtin names -- are process-local runtime state (see
    :func:`is_builtin_spec`).
    """
    global _BUILTINS_LOADED, _BUILTIN_PLATFORMS, _BUILTIN_ERAS
    _BUILTINS_LOADED = True
    _BUILTIN_PLATFORMS = frozenset(platforms)
    _BUILTIN_ERAS = frozenset(eras)


def is_builtin_spec(spec: "PlatformSpec") -> bool:
    """True when ``spec`` resolves against the builtin registry alone.

    Runtime registrations (:func:`register_platform`, :func:`register_era`)
    exist only in the registering process; specs depending on them --
    including runtime *overwrites* of builtin factories -- cannot be resolved
    faithfully by freshly spawned worker processes.  Scenario references do
    not count: they are expanded into self-contained specs at parse time.
    """
    _ensure_builtins()
    expanded = _expand(spec)
    era = expanded.era if expanded.era is not None else DEFAULT_ERA
    if expanded.base not in _BUILTIN_PLATFORMS or era not in _BUILTIN_ERAS:
        return False
    # Resolution prefers the era-specific factory; whichever key wins must
    # still be the builtin registration, not a runtime overwrite.
    chosen = (expanded.base, era) if (expanded.base, era) in _FACTORIES else (expanded.base, None)
    return chosen not in _RUNTIME_KEYS


def _check_name(name: str, kind: str) -> str:
    name = name.strip()
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid {kind} name {name!r}: must start with a letter and use "
            f"only letters, digits, '_', '-', '.'"
        )
    return name


def register_era(era: str) -> None:
    """Declare a measurement era label (e.g. a hypothetical ``2026``).

    Platforms without an era-specific factory resolve to their default
    profile in the new era; use :func:`register_platform` with ``era=...`` or
    a scenario with overrides to make the era actually differ.
    """
    era = era.strip()
    if not _ERA_RE.match(era):
        raise ValueError(
            f"invalid era name {era!r}: use only letters, digits, '_', '-', '.'"
        )
    if era not in _ERAS:
        _ERAS.append(era)


def register_platform(
    name: str,
    factory: Callable[[], PlatformProfile],
    era: Optional[str] = None,
    overwrite: bool = False,
) -> None:
    """Register a profile factory for ``name`` (optionally era-specific).

    ``era=None`` registers the default factory used for any era without its
    own registration; passing an era also declares it (:func:`register_era`).
    """
    name = _check_name(name, "platform")
    if name in _SCENARIOS:
        raise ValueError(f"{name!r} is already registered as a scenario")
    if era is not None:
        register_era(era)
    key = (name, era)
    if key in _FACTORIES and not overwrite:
        raise ValueError(
            f"platform {name!r} (era={era!r}) is already registered; "
            f"pass overwrite=True to replace it"
        )
    _FACTORIES[key] = factory
    if _BUILTINS_LOADED:
        _RUNTIME_KEYS.add(key)
    if name not in _PLATFORM_NAMES:
        _PLATFORM_NAMES.append(name)


def register_scenario(
    name: str,
    definition: Union[str, PlatformSpec, Mapping[str, object]],
    overwrite: bool = False,
) -> PlatformSpec:
    """Register a named platform variant (a what-if scenario).

    ``definition`` may be a spec string (``"azure@2024:cold_start=x1.5"``), a
    :class:`PlatformSpec`, or a mapping with ``base``/``era``/``overrides``
    keys.  The stored spec is fully expanded -- referencing another scenario
    flattens it -- so scenario names are pure parse-time aliases and never
    need to travel to worker processes.
    """
    _ensure_builtins()
    name = _check_name(name, "scenario")
    if any(name == platform for platform in _PLATFORM_NAMES):
        raise ValueError(f"{name!r} is already registered as a platform")
    if name in _SCENARIOS and not overwrite:
        raise ValueError(
            f"scenario {name!r} is already registered; pass overwrite=True to replace it"
        )
    # coerce() ends in _expand(), which already rejects unknown bases and
    # flattens references to other scenarios, so `spec.base` is a platform.
    spec = PlatformSpec.coerce(definition)
    if spec.era is not None and spec.era not in _ERAS:
        # Scenario files may pin extrapolated eras (e.g. "2026"); declare the
        # label so the scenario is usable, instead of registering something
        # that fails at every resolve with "unknown era".
        register_era(spec.era)
    global _SCENARIO_EPOCH
    _SCENARIO_EPOCH += 1
    _SCENARIOS[name] = spec
    return spec


def _expand(spec: PlatformSpec) -> PlatformSpec:
    """Flatten a scenario reference into a self-contained spec.

    The referencing spec's explicit era and overrides win over the
    scenario's own (per-path for overrides).
    """
    under = _SCENARIOS.get(spec.base)
    if under is None:
        if spec.base not in _PLATFORM_NAMES:
            raise KeyError(
                f"unknown platform or scenario {spec.base!r}; available platforms: "
                f"{available_platforms()}, scenarios: {sorted(_SCENARIOS)}"
            )
        return spec
    explicit = {o.path: o for o in spec.overrides}
    merged = tuple(o for o in under.overrides if o.path not in explicit) + tuple(
        spec.overrides
    )
    return PlatformSpec(
        base=under.base,
        era=spec.era if spec.era is not None else under.era,
        overrides=merged,
    )


def load_scenarios(path: Union[str, Path]) -> List[str]:
    """Load named scenarios from a TOML or JSON file and register them.

    Expected layout (TOML; JSON uses the same structure)::

        [platforms.azure-fast-cold]
        base = "azure"
        era = "2024"
        [platforms.azure-fast-cold.overrides]
        cold_start = "x0.5"
        "orchestration.dispatch_base_s" = 0.04

    A ``spec = "azure@2024:cold_start=x0.5"`` string may be used instead of
    the ``base``/``era``/``overrides`` keys.  Returns the registered names.
    Re-loading the same file is idempotent (scenarios are overwritten).
    """
    _ensure_builtins()
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        document = json.loads(text)
    else:
        try:
            import tomllib
        except ImportError:  # Python < 3.11: stdlib tomllib is unavailable
            try:
                import tomli as tomllib  # type: ignore[no-redef]
            except ImportError as exc:
                raise ImportError(
                    f"reading the TOML scenario file {path} needs Python >= 3.11 "
                    f"(tomllib) or the 'tomli' package; a .json scenario file "
                    f"works on any version"
                ) from exc
        document = tomllib.loads(text)
    if not isinstance(document, dict):
        raise ValueError(f"scenario file {path} must hold a table/object at the top level")
    entries = document.get("platforms", document)
    if not isinstance(entries, dict) or not entries:
        raise ValueError(f"scenario file {path} defines no platforms")
    registered: List[str] = []
    for name, body in entries.items():
        if not isinstance(body, Mapping):
            raise ValueError(f"scenario {name!r} in {path} must be a table/object")
        if "spec" in body:
            definition: Union[str, Mapping[str, object]] = str(body["spec"])
        elif "base" in body:
            definition = body
        else:
            raise ValueError(f"scenario {name!r} in {path} needs a 'base' or 'spec' key")
        register_scenario(name, definition, overwrite=True)
        registered.append(name)
    return registered


def available_platforms(era: Optional[str] = None) -> List[str]:
    """Registered base platform names; with ``era``, only those resolvable in it.

    A platform resolves in an era when it has an era-specific factory or an
    era-less default -- so a platform registered *only* for ``2026`` is not
    advertised for ``2024``.
    """
    _ensure_builtins()
    if era is None:
        return sorted(_PLATFORM_NAMES)
    if era not in _ERAS:
        raise KeyError(f"unknown era {era!r}; available: {available_eras()}")
    return sorted(
        name
        for name in _PLATFORM_NAMES
        if (name, era) in _FACTORIES or (name, None) in _FACTORIES
    )


def available_eras() -> List[str]:
    """Registered era labels, in registration order."""
    _ensure_builtins()
    return list(_ERAS)


def scenario_epoch() -> int:
    """How many scenario registrations this process has made."""
    return _SCENARIO_EPOCH


def available_scenarios() -> Dict[str, PlatformSpec]:
    """Registered scenario names mapped to their (expanded) specs."""
    _ensure_builtins()
    return dict(sorted(_SCENARIOS.items()))
