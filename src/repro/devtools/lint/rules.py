"""The repo-specific invariant rules behind ``repro-flow lint``.

==== ======================= =====================================================
id   name                    enforces
==== ======================= =====================================================
R001 determinism             every random draw / clock read goes through a
                             sanctioned seam (named RNG streams, injectable clock);
                             no builtin ``hash()`` of non-int values
R002 fingerprint-drift       fingerprinted field sets match the checked-in
                             manifest; changes require a ``CACHE_VERSION`` bump
R003 frozen-spec             ``*Spec`` dataclasses are ``frozen=True`` with no
                             mutable default fields
R004 worker-pickle-safety    callables submitted to process pools are picklable
                             module-level functions with picklable arguments;
                             per-process memo/cache state is rebuilt in the
                             worker, never pickled into a payload
R005 mutable-default-arg     no mutable default argument values anywhere
R006 deprecated-kwarg        no internal call sites of ``CampaignSpec``'s
                             deprecated ``mode=``/``burst_size=`` pair
R007 event-handler-purity    callbacks registered on engine events (and the
                             ``schedule_call``/``schedule_batch`` fast lanes)
                             stay pure: no ambient RNG/clock draws, no module
                             globals
R008 backend-protocol        every ``GridBackend`` implementation defines the
                             full lease/record/manifest protocol with matching
                             signatures, and filesystem access stays inside
                             ``FileBackend``
R009 telemetry-purity        metric/span calls never run inside event-handler
                             bodies (the engine is instrumented only through
                             the external ``set_monitor`` seam), and nothing
                             under ``sim/`` imports the observability package
==== ======================= =====================================================

Each rule is pure AST analysis over one file; cross-file state (R002's
manifest) is read from disk, never imported, so a module that cannot even
import still lints.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from . import manifest as manifest_mod
from .framework import Finding, LintModule, Rule, Severity, path_matches

# --------------------------------------------------------------------- helpers
def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """``local name -> dotted origin`` for every import in the module."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".", 1)[0]
                aliases[local] = item.name if item.asname else item.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def _resolve_call_path(func: ast.expr, aliases: Mapping[str, str]) -> Optional[str]:
    """Dotted origin of a call target (``np.random.seed`` -> ``numpy.random.seed``)."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = aliases.get(node.id)
    if origin is None:
        return None
    return ".".join([origin, *reversed(parts)]) if parts else origin


_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter"}


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_DISPLAYS):
        return True
    if isinstance(node, ast.Call):
        name = node.func.attr if isinstance(node.func, ast.Attribute) else (
            node.func.id if isinstance(node.func, ast.Name) else None
        )
        return name in _MUTABLE_FACTORIES
    return False


# ------------------------------------------------------------------------ R001
class DeterminismRule(Rule):
    """Ban ambient nondeterminism: global RNGs, wall clocks, random tokens.

    Bit-identical replay rests on every stochastic draw flowing through
    :class:`repro.sim.rng.RandomStreams` named streams and every timestamp
    being simulation time or an injected clock.  Allowlisted paths are the
    sanctioned seams themselves (``sim/rng.py``, the devtools, the CLI edge);
    single-call seams elsewhere (the grid's lease wall clock) carry an inline
    ``# lint: allow[R001]`` pragma with their justification.

    Builtin ``hash()`` counts as ambient entropy too: string and bytes
    hashes are salted per process (``PYTHONHASHSEED``), so any value derived
    from them differs between workers.  A call is allowed only when its
    argument is an int literal or a parameter annotated ``int``, or inside a
    ``__hash__`` method, whose value never leaves the process.
    """

    rule_id = "R001"
    name = "determinism"
    description = (
        "no module-level RNG (random.*, np.random.*), wall clocks "
        "(time.time, datetime.now), random tokens (os.urandom, uuid.uuid4), "
        "or builtin hash() of non-int values outside sanctioned seams"
    )

    #: Exact dotted call paths that read wall clocks or entropy.
    BANNED_CALLS = {
        "time.time": "clock",
        "time.time_ns": "clock",
        "datetime.datetime.now": "clock",
        "datetime.datetime.utcnow": "clock",
        "datetime.datetime.today": "clock",
        "datetime.date.today": "clock",
        "os.urandom": "token",
        "uuid.uuid4": "token",
        "uuid.uuid1": "token",
    }

    #: Dotted prefixes whose *every* call is a module-level RNG draw.
    BANNED_PREFIXES = ("random.", "numpy.random.")

    HINTS = {
        "rng": (
            "route the draw through a named stream: repro.sim.rng "
            "(RandomStreams.stream(name) or named_stream(seed, name))"
        ),
        "clock": (
            "read simulation time, or inject a clock seam like "
            "repro.faas.grid's LeaseQueue.clock"
        ),
        "token": (
            "derive identifiers from seeded streams or cell fingerprints; "
            "if true uniqueness is required, isolate one seam and pragma it"
        ),
        "hash": (
            "derive a stable integer instead: "
            "repro.sim.rng.derive_stream_seed(seed, name)"
        ),
    }

    def __init__(self, allowed_paths: Sequence[str] = ("sim/rng.py", "devtools/", "cli.py")):
        self.allowed_paths = tuple(allowed_paths)

    def check(self, module: LintModule) -> Iterator[Finding]:
        if path_matches(module.rel_path, self.allowed_paths):
            return
        aliases = _import_aliases(module.tree)
        if "hash" not in aliases:
            yield from self._check_hash_calls(module, module.tree, frozenset())
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            path = _resolve_call_path(node.func, aliases)
            if path is None:
                continue
            kind: Optional[str] = None
            if path in self.BANNED_CALLS:
                kind = self.BANNED_CALLS[path]
            elif path.startswith(self.BANNED_PREFIXES) or path in ("random", "numpy.random"):
                kind = "rng"
            if kind is None:
                continue
            noun = {
                "rng": "module-level RNG call",
                "clock": "wall-clock read",
                "token": "nondeterministic token source",
            }[kind]
            yield self.finding(
                module, node, f"{noun} {path}()", hint=self.HINTS[kind]
            )

    def _check_hash_calls(
        self, module: LintModule, node: ast.AST, int_params: frozenset
    ) -> Iterator[Finding]:
        """Builtin ``hash()`` calls whose argument is not provably an int."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name == "__hash__":
                    continue
                arguments = child.args
                params = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]
                yield from self._check_hash_calls(module, child, frozenset(
                    param.arg for param in params
                    if isinstance(param.annotation, ast.Name) and param.annotation.id == "int"
                ))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "hash"
                and not (len(child.args) == 1 and _is_int_expr(child.args[0], int_params))
            ):
                yield self.finding(
                    module, child,
                    "builtin hash() of a non-int value is salted per process (PYTHONHASHSEED)",
                    hint=self.HINTS["hash"],
                )
            yield from self._check_hash_calls(module, child, int_params)


def _is_int_expr(node: ast.expr, int_params: frozenset) -> bool:
    """Whether ``node`` is an int literal or an ``int``-annotated parameter."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Name):
        return node.id in int_params
    return isinstance(node, ast.Constant) and type(node.value) is int


# ------------------------------------------------------------------------ R002
class FingerprintDriftRule(Rule):
    """Fingerprinted field sets must match the manifest, or CACHE_VERSION moves.

    Anchored on the module that owns ``CACHE_VERSION`` (``faas/campaign.py``):
    when that file is among the linted paths, the rule statically re-extracts
    the fingerprint surface (see :mod:`.manifest`) and compares it against the
    checked-in manifest.  A surface change at an unchanged ``CACHE_VERSION``
    is the bug this rule exists to catch -- cached cells from the previous
    layout would be served as if they were current.
    """

    rule_id = "R002"
    name = "fingerprint-drift"
    description = (
        "field sets of fingerprintable dataclasses (and benchmark factory "
        "params) must match the manifest; changes require a CACHE_VERSION "
        "bump + `lint --update-manifest`"
    )

    def __init__(
        self,
        manifest_path: Optional[Path] = None,
        package_root: Optional[Path] = None,
        classes: Sequence[Tuple[str, str]] = manifest_mod.DEFAULT_FINGERPRINT_CLASSES,
    ):
        self.manifest_path = Path(manifest_path) if manifest_path is not None else None
        self.package_root = (
            Path(package_root) if package_root is not None
            else manifest_mod.DEFAULT_PACKAGE_ROOT
        )
        self.classes = tuple(classes)

    def _anchor(self, module: LintModule) -> bool:
        anchor = (self.package_root / manifest_mod.CACHE_VERSION_MODULE).resolve()
        try:
            return module.path.resolve() == anchor
        except OSError:  # pragma: no cover - resolution failures are non-anchors
            return False

    def check(self, module: LintModule) -> Iterator[Finding]:
        if not self._anchor(module):
            return
        line = manifest_mod.cache_version_line(self.package_root)

        def anchored(message: str, hint: str) -> Finding:
            return Finding(
                rule_id=self.rule_id, message=message, path=module.rel_path,
                line=line, severity=self.severity, hint=hint,
            )

        recorded = manifest_mod.load_manifest(self.manifest_path)
        current = manifest_mod.generate_manifest(self.package_root, classes=self.classes)
        update_hint = "run `repro-flow lint --update-manifest` to record the new surface"
        if recorded is None:
            yield anchored("no fingerprint manifest found", update_hint)
            return
        changes = manifest_mod.describe_changes(recorded, current)
        recorded_version = recorded.get("cache_version")
        current_version = current.get("cache_version")
        if changes:
            if recorded_version == current_version:
                for change in changes:
                    yield anchored(
                        f"fingerprinted surface changed without a CACHE_VERSION "
                        f"bump: {change}",
                        "bump CACHE_VERSION in src/repro/faas/campaign.py (stale "
                        "cached cells would otherwise be served), then " + update_hint,
                    )
            else:
                yield anchored(
                    f"fingerprint manifest is stale after the CACHE_VERSION bump "
                    f"({recorded_version} -> {current_version}); {len(changes)} "
                    f"surface change(s) unrecorded",
                    update_hint,
                )
        elif recorded_version != current_version:
            yield anchored(
                f"CACHE_VERSION is {current_version} but the manifest records "
                f"{recorded_version}",
                update_hint,
            )


# ------------------------------------------------------------------------ R003
class FrozenSpecRule(Rule):
    """``*Spec`` dataclasses are identities: frozen, hashable, no mutable defaults.

    Specs are campaign sweep coordinates and fingerprint inputs -- a mutated
    spec silently changes a cell's identity after the fact.  ``frozen=True``
    plus immutable defaults makes that impossible by construction.
    """

    rule_id = "R003"
    name = "frozen-spec"
    description = "*Spec dataclasses must be @dataclass(frozen=True) with no mutable default fields"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or not node.name.endswith("Spec"):
                continue
            decorator = self._dataclass_decorator(node)
            if decorator is None:
                continue
            if not self._is_frozen(decorator):
                yield self.finding(
                    module, node,
                    f"spec dataclass {node.name} is not frozen",
                    hint="declare @dataclass(frozen=True); use object.__setattr__ "
                         "for __post_init__ normalisation",
                )
            for statement in node.body:
                if (
                    isinstance(statement, ast.AnnAssign)
                    and statement.value is not None
                    and self._is_mutable_default(statement.value)
                ):
                    target = statement.target
                    field_name = target.id if isinstance(target, ast.Name) else "?"
                    yield self.finding(
                        module, statement,
                        f"spec dataclass {node.name} has mutable default "
                        f"field {field_name!r}",
                        hint="default to an immutable value (tuple, frozenset, "
                             "None) instead",
                    )

    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.attr if isinstance(target, ast.Attribute) else (
                target.id if isinstance(target, ast.Name) else None
            )
            if name == "dataclass":
                return decorator
        return None

    @staticmethod
    def _is_frozen(decorator: ast.expr) -> bool:
        if not isinstance(decorator, ast.Call):
            return False
        for keyword in decorator.keywords:
            if keyword.arg == "frozen":
                return isinstance(keyword.value, ast.Constant) and keyword.value.value is True
        return False

    @staticmethod
    def _is_mutable_default(value: ast.expr) -> bool:
        if _is_mutable_literal(value):
            return True
        # field(default_factory=list) -- a per-instance mutable default.
        if isinstance(value, ast.Call):
            name = value.func.attr if isinstance(value.func, ast.Attribute) else (
                value.func.id if isinstance(value.func, ast.Name) else None
            )
            if name == "field":
                for keyword in value.keywords:
                    if keyword.arg == "default_factory":
                        factory = keyword.value
                        factory_name = (
                            factory.id if isinstance(factory, ast.Name) else None
                        )
                        return factory_name in _MUTABLE_FACTORIES
        return False


# ------------------------------------------------------------------------ R004
class WorkerPickleSafetyRule(Rule):
    """Payloads submitted to process pools must survive pickling under spawn.

    ``run_cells`` (and through it the grid's ``run_grid_worker``) ships work
    to ``ProcessPoolExecutor`` workers; a lambda, closure, open file, or lock
    in the submitted callable/arguments dies at pickle time -- but only on
    spawn platforms, so the bug hides on Linux CI and bites on macOS hosts.
    Module-level functions that *read* module-level mutable state are flagged
    as warnings: each spawned worker sees its own copy, so mutations diverge
    silently between parent and workers.

    Passing that mutable state *itself* through a submitted payload is an
    error: per-process memo/cache state (warm benchmark factories, resolved
    profiles, arrival vectors) must be rebuilt inside each worker -- a
    pickled snapshot goes stale the moment the parent's copy changes, and
    shipping a large memo on every chunk task erases the batching win.
    """

    rule_id = "R004"
    name = "worker-pickle-safety"
    description = (
        "callables submitted to pools must be module-level functions; no "
        "lambdas, closures, locks, open files, or module-level mutable "
        "state in submitted payloads"
    )

    SUBMIT_METHODS = ("submit", "apply_async")
    UNPICKLABLE_CALLS = {
        "open": "an open file handle",
        "Lock": "a lock",
        "RLock": "a lock",
        "Semaphore": "a synchronisation primitive",
        "Condition": "a synchronisation primitive",
        "Event": "a synchronisation primitive",
    }

    def check(self, module: LintModule) -> Iterator[Finding]:
        top_level: Dict[str, ast.FunctionDef] = {}
        nested: Set[str] = set()
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                top_level[node.name] = node  # type: ignore[assignment]
                for child in ast.walk(node):
                    if (
                        isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and child is not node
                    ):
                        nested.add(child.name)
        mutable_globals = {
            target.id
            for node in module.tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and _is_mutable_literal(node.value)
        }

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                not isinstance(node.func, ast.Attribute)
                or node.func.attr not in self.SUBMIT_METHODS
            ):
                continue
            if not node.args:
                continue
            target, *payload = node.args
            yield from self._check_callable(module, target, top_level, nested,
                                            mutable_globals)
            for arg in payload + [kw.value for kw in node.keywords]:
                yield from self._check_payload(module, arg, mutable_globals)

    def _check_callable(
        self,
        module: LintModule,
        target: ast.expr,
        top_level: Mapping[str, ast.FunctionDef],
        nested: Set[str],
        mutable_globals: Set[str],
    ) -> Iterator[Finding]:
        if isinstance(target, ast.Lambda):
            yield self.finding(
                module, target,
                "lambda submitted to a worker pool is not picklable",
                hint="define a module-level function and submit that",
            )
            return
        if not isinstance(target, ast.Name):
            return
        if target.id in nested and target.id not in top_level:
            yield self.finding(
                module, target,
                f"nested function {target.id!r} submitted to a worker pool "
                f"(closures are not picklable under spawn)",
                hint="move the function to module level and pass its inputs "
                     "as explicit picklable arguments",
            )
            return
        worker = top_level.get(target.id)
        if worker is None:
            return
        read = {
            child.id
            for child in ast.walk(worker)
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
        }
        for name in sorted(read & mutable_globals):
            yield self.finding(
                module, worker,
                f"worker function {worker.name!r} reads module-level mutable "
                f"state {name!r}",
                hint="spawned workers get an independent copy; pass the data "
                     "through the submitted payload instead",
                severity=Severity.WARNING,
            )

    def _check_payload(
        self,
        module: LintModule,
        arg: ast.expr,
        mutable_globals: Set[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(arg):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutable_globals
            ):
                yield self.finding(
                    module, node,
                    f"per-process state {node.id!r} pickled into a "
                    f"worker-pool payload",
                    hint="workers must rebuild memo/cache state in-process; "
                         "pass the inputs needed to rebuild it instead",
                )
            elif isinstance(node, ast.Lambda):
                yield self.finding(
                    module, node,
                    "lambda in a worker-pool payload is not picklable",
                    hint="pass data, not behaviour, across the process boundary",
                )
            elif isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else (
                    node.func.id if isinstance(node.func, ast.Name) else None
                )
                if name in self.UNPICKLABLE_CALLS:
                    yield self.finding(
                        module, node,
                        f"{self.UNPICKLABLE_CALLS[name]} in a worker-pool "
                        f"payload is not picklable",
                        hint="open/construct it inside the worker instead",
                    )


# ------------------------------------------------------------------------ R005
class MutableDefaultArgRule(Rule):
    """The classic: ``def f(x=[])`` shares one list across every call."""

    rule_id = "R005"
    name = "mutable-default-arg"
    description = "no mutable default argument values (lists, dicts, sets)"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if _is_mutable_literal(default):
                    owner = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        module, default,
                        f"mutable default argument in {owner!r}",
                        hint="default to None (or a tuple) and build the "
                             "mutable value inside the body",
                    )


# ------------------------------------------------------------------------ R006
class DeprecatedKwargRule(Rule):
    """No internal call feeds ``CampaignSpec``'s deprecated trigger pair.

    ``CampaignSpec.mode``/``burst_size`` were replaced by the ``workloads``
    sweep dimension.  The pair stays because it is part of the fingerprinted
    spec document (R002); only the ``campaign --mode/--burst-size`` CLI path
    may still forward it.  The rule targets the specific deprecated
    parameters per callee -- ``burst_size`` remains a perfectly good
    parameter of ``WorkloadSpec.burst``, for example.
    """

    rule_id = "R006"
    name = "deprecated-kwarg"
    description = (
        "no internal call sites passing the deprecated mode=/burst_size= "
        "kwargs to CampaignSpec"
    )

    DEPRECATED: Mapping[str, frozenset] = {
        "CampaignSpec": frozenset({"mode", "burst_size"}),
    }

    HINT = "pass workloads=(WorkloadSpec.…,) instead"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.attr if isinstance(node.func, ast.Attribute) else (
                node.func.id if isinstance(node.func, ast.Name) else None
            )
            banned = self.DEPRECATED.get(name or "")
            if not banned:
                continue
            for keyword in node.keywords:
                if keyword.arg in banned:
                    yield self.finding(
                        module, keyword.value,
                        f"deprecated kwarg {keyword.arg}= passed to {name}",
                        hint=self.HINT,
                    )


# ------------------------------------------------------------------------ R007
class EventHandlerPurityRule(Rule):
    """Callbacks registered on engine events must be pure simulation code.

    The event engine dispatches callbacks in ``(time, seq)`` order; replay is
    bit-identical only if every handler's effect is a function of simulation
    state.  A handler that draws from a module-level RNG, reads a wall clock,
    or writes module globals smuggles host state into the event schedule --
    and unlike an ordinary call site, a handler runs at a point chosen by the
    queue, so the damage is impossible to localise after the fact.

    Registration sites recognised: ``add_callback(event, fn)``,
    ``<event>.callbacks.append(fn)``, and the fast-lane schedulers
    ``schedule_call(delay, fn)`` / ``schedule_batch(delays, fn)``.  The
    handler body is resolved when ``fn`` is a lambda, a function defined in
    the module (at any nesting level), or a method of a module class; opaque
    targets (imported callables, bound attributes of other objects) are out
    of reach for single-file AST analysis and are left to R001 at their
    definition site.
    """

    rule_id = "R007"
    name = "event-handler-purity"
    description = (
        "event callbacks and schedule_call/schedule_batch handlers must not "
        "draw ambient randomness, read wall clocks, or touch module globals"
    )

    #: Registration call names whose SECOND positional argument is the handler.
    REGISTER_SECOND_ARG = ("add_callback", "schedule_call", "schedule_batch")

    HANDLER_HINT = (
        "handlers must depend only on simulation state: draw through the "
        "platform's named RNG streams before scheduling, and carry state in "
        "closure cells or explicit objects, not module globals"
    )

    def __init__(self, allowed_paths: Sequence[str] = ("devtools/",)):
        self.allowed_paths = tuple(allowed_paths)

    def check(self, module: LintModule) -> Iterator[Finding]:
        if path_matches(module.rel_path, self.allowed_paths):
            return
        aliases = _import_aliases(module.tree)
        functions: Dict[str, ast.AST] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, node)
        seen: Set[int] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            handler = self._registered_handler(node)
            if handler is None:
                continue
            body = self._resolve_handler(handler, functions)
            if body is None or id(body) in seen:
                continue
            seen.add(id(body))
            yield from self._check_handler(module, body, aliases)

    def _registered_handler(self, call: ast.Call) -> Optional[ast.expr]:
        """The handler expression of a registration call, if this is one."""
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name in self.REGISTER_SECOND_ARG and len(call.args) >= 2:
            return call.args[1]
        # <event>.callbacks.append(fn): the pre-add_callback idiom.
        if (
            name == "append"
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "callbacks"
            and call.args
        ):
            return call.args[0]
        return None

    @staticmethod
    def _resolve_handler(
        handler: ast.expr, functions: Mapping[str, ast.AST]
    ) -> Optional[ast.AST]:
        if isinstance(handler, ast.Lambda):
            return handler
        if isinstance(handler, ast.Name):
            return functions.get(handler.id)
        if isinstance(handler, ast.Attribute):
            # self._on_child / obj.handle -- resolvable when the method is
            # defined in this module.
            return functions.get(handler.attr)
        return None

    def _check_handler(
        self, module: LintModule, body: ast.AST, aliases: Mapping[str, str]
    ) -> Iterator[Finding]:
        owner = getattr(body, "name", "<lambda>")
        for node in ast.walk(body):
            if isinstance(node, ast.Global):
                yield self.finding(
                    module, node,
                    f"event handler {owner!r} declares global "
                    f"{', '.join(node.names)}",
                    hint=self.HANDLER_HINT,
                )
            elif isinstance(node, ast.Call):
                path = _resolve_call_path(node.func, aliases)
                if path is None:
                    continue
                banned = (
                    path in DeterminismRule.BANNED_CALLS
                    or path.startswith(DeterminismRule.BANNED_PREFIXES)
                    or path in ("random", "numpy.random")
                )
                if banned:
                    yield self.finding(
                        module, node,
                        f"event handler {owner!r} calls {path}()",
                        hint=self.HANDLER_HINT,
                    )


# ------------------------------------------------------------------------ R008
class BackendProtocolRule(Rule):
    """``GridBackend`` implementations honour the protocol, medium included.

    The grid worker/merge logic is written against the nine-method backend
    contract (:mod:`repro.faas.backends.base`); an implementation that skips
    a method, or renames its parameters, fails at runtime in whichever
    distributed code path happens to hit it first.  This rule catches both at
    lint time: every class with a ``GridBackend`` base must define the full
    protocol with the protocol's positional parameter names (extra trailing
    or keyword-only parameters are fine -- backends may grow options).

    The second half guards the abstraction itself: the whole point of the
    backend split is that only :class:`~repro.faas.backends.file.FileBackend`
    knows about the filesystem.  A ``Path``/``open``/``os.*`` call inside any
    other backend class -- or anywhere in a ``faas/backends/`` module other
    than ``file.py`` -- is the shared-filesystem assumption leaking back in,
    so it is flagged wherever the class lives (fixtures and future backends
    included).
    """

    rule_id = "R008"
    name = "backend-protocol"
    description = (
        "GridBackend implementations define the full claim/renew/mark_done/"
        "release/active/append_record/iter_records/read_manifest/"
        "write_manifest protocol with matching signatures; filesystem access "
        "stays inside FileBackend"
    )

    #: The protocol: method name -> exact positional parameter names.
    PROTOCOL: Mapping[str, Tuple[str, ...]] = {
        "claim": ("self", "fingerprint", "worker_id", "ttl_s"),
        "renew": ("self", "fingerprint", "worker_id", "ttl_s"),
        "mark_done": ("self", "fingerprint", "worker_id"),
        "release": ("self", "fingerprint", "worker_id"),
        "active": ("self",),
        "append_record": ("self", "shard", "worker_id", "document"),
        "iter_records": ("self", "shard"),
        "read_manifest": ("self",),
        "write_manifest": ("self", "manifest"),
    }

    BASE_NAME = "GridBackend"
    #: The one implementation allowed to touch the filesystem.
    FILE_IMPLEMENTATION = "FileBackend"
    #: The backends package; its modules are filesystem-free except this one.
    PACKAGE_PATHS = ("faas/backends/",)
    PACKAGE_FILE_MODULE = "file.py"

    #: Exact dotted call paths that touch the filesystem.
    FILESYSTEM_CALLS = {
        "os.link", "os.rename", "os.replace", "os.remove", "os.unlink",
        "os.fsync", "os.mkdir", "os.makedirs", "os.listdir", "os.scandir",
        "os.stat", "os.open", "io.open",
    }
    #: Dotted prefixes whose every call is filesystem access.
    FILESYSTEM_PREFIXES = ("pathlib.", "os.path.", "shutil.", "tempfile.", "glob.")

    PROTOCOL_HINT = (
        "implement the method with the protocol's parameter names (see "
        "repro.faas.backends.base.GridBackend); extra trailing/keyword-only "
        "parameters are allowed"
    )
    FILESYSTEM_HINT = (
        "filesystem layout is FileBackend's private concern; keep this "
        "backend's state in its own medium (dicts, object keys, ...) so "
        "workers without the shared mount can still coordinate"
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        aliases = _import_aliases(module.tree)
        module_wide = self._module_banned_from_filesystem(module.rel_path)
        if module_wide:
            yield from self._check_filesystem(
                module, module.tree, aliases,
                owner=f"backends module {Path(module.rel_path).name!r}",
            )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == self.BASE_NAME or not self._is_backend_class(node):
                continue
            yield from self._check_protocol(module, node)
            if module_wide or node.name == self.FILE_IMPLEMENTATION:
                continue  # covered above, or the sanctioned file backend
            yield from self._check_filesystem(
                module, node, aliases, owner=f"backend {node.name!r}"
            )

    def _module_banned_from_filesystem(self, rel_path: str) -> bool:
        return (
            path_matches(rel_path, self.PACKAGE_PATHS)
            and Path(rel_path).name != self.PACKAGE_FILE_MODULE
        )

    def _is_backend_class(self, node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None
            )
            if name == self.BASE_NAME:
                return True
        return False

    def _check_protocol(
        self, module: LintModule, node: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = {
            stmt.name: stmt for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for method_name, expected in self.PROTOCOL.items():
            method = methods.get(method_name)
            if method is None:
                yield self.finding(
                    module, node,
                    f"backend {node.name!r} is missing protocol method "
                    f"{method_name}({', '.join(expected[1:])})",
                    hint=self.PROTOCOL_HINT,
                )
                continue
            positional = tuple(
                arg.arg for arg in (*method.args.posonlyargs, *method.args.args)
            )
            if positional[:len(expected)] != expected:
                yield self.finding(
                    module, method,
                    f"backend {node.name!r} method {method_name} has "
                    f"signature ({', '.join(positional)}); the protocol "
                    f"requires ({', '.join(expected)})",
                    hint=self.PROTOCOL_HINT,
                )

    def _check_filesystem(
        self,
        module: LintModule,
        scope: ast.AST,
        aliases: Mapping[str, str],
        owner: str,
    ) -> Iterator[Finding]:
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            reason = self._filesystem_call(node, aliases)
            if reason is not None:
                yield self.finding(
                    module, node,
                    f"{owner} performs filesystem access: {reason}",
                    hint=self.FILESYSTEM_HINT,
                )

    def _filesystem_call(
        self, node: ast.Call, aliases: Mapping[str, str]
    ) -> Optional[str]:
        # The open() builtin, however it is spelled locally.
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            return "open()"
        path = _resolve_call_path(node.func, aliases)
        if path is None:
            return None
        if path in self.FILESYSTEM_CALLS or path.startswith(self.FILESYSTEM_PREFIXES):
            return f"{path}()"
        return None


# ------------------------------------------------------------------------ R009
def _telemetry_aliases(tree: ast.Module) -> Set[str]:
    """Local names bound to the observability package (any import spelling).

    Unlike :func:`_import_aliases` this resolves *relative* imports too
    (``from ..observability import span``), because telemetry is imported
    relatively everywhere inside the package.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if "observability" in module:
                for item in node.names:
                    if item.name != "*":
                        names.add(item.asname or item.name)
            else:
                for item in node.names:
                    if "observability" in item.name:
                        names.add(item.asname or item.name.split(".", 1)[0])
        elif isinstance(node, ast.Import):
            for item in node.names:
                if "observability" in item.name:
                    names.add(item.asname or item.name.split(".", 1)[0])
    return names


def _imports_observability(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return "observability" in module or any(
            "observability" in item.name for item in node.names
        )
    if isinstance(node, ast.Import):
        return any("observability" in item.name for item in node.names)
    return False


class TelemetryPurityRule(Rule):
    """Telemetry observes the simulation; it must never participate in it.

    Two halves, mirroring the two ways metrics could perturb determinism:

    * **Handlers stay uninstrumented.**  Event callbacks (every registration
      shape R007 recognises) run at points chosen by the queue; a metric
      update or span inside one adds host-dependent work to the hot dispatch
      path and tempts reading values back into simulation decisions.  The
      engine's one sanctioned seam is the *external* monitor attached via
      ``Environment.set_monitor`` -- per-run, outside any handler.
    * **``sim/`` never imports observability.**  The import ban makes the
      stronger property auditable at a glance: simulation code cannot read a
      metric back into control flow if it cannot even name one.
    """

    rule_id = "R009"
    name = "telemetry-purity"
    description = (
        "no metric/span calls inside event-handler bodies (instrument via the "
        "external Environment.set_monitor seam), and no observability imports "
        "anywhere under sim/"
    )

    SIM_PATHS = ("sim/",)

    HANDLER_HINT = (
        "event handlers must stay pure simulation code; record per-run "
        "telemetry from outside via Environment.set_monitor (the engine's "
        "sanctioned seam), or in the campaign/grid layer after the run"
    )
    IMPORT_HINT = (
        "sim/ must not know telemetry exists: attach an EngineMonitor from "
        "the caller (see repro.faas.experiment._attach_engine_monitor) "
        "instead of importing observability into simulation code"
    )

    def __init__(
        self, allowed_paths: Sequence[str] = ("observability/", "devtools/")
    ):
        self.allowed_paths = tuple(allowed_paths)
        self._handlers = EventHandlerPurityRule()

    def check(self, module: LintModule) -> Iterator[Finding]:
        if path_matches(module.rel_path, self.allowed_paths):
            return
        if path_matches(module.rel_path, self.SIM_PATHS):
            for node in ast.walk(module.tree):
                if _imports_observability(node):
                    yield self.finding(
                        module, node,
                        "simulation module imports the observability package",
                        hint=self.IMPORT_HINT,
                    )
            return  # the import ban subsumes the handler check under sim/
        telemetry = _telemetry_aliases(module.tree)
        if not telemetry:
            return
        functions: Dict[str, ast.AST] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, node)
        seen: Set[int] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            handler = self._handlers._registered_handler(node)
            if handler is None:
                continue
            body = EventHandlerPurityRule._resolve_handler(handler, functions)
            if body is None or id(body) in seen:
                continue
            seen.add(id(body))
            yield from self._check_handler(module, body, telemetry)

    def _check_handler(
        self, module: LintModule, body: ast.AST, telemetry: Set[str]
    ) -> Iterator[Finding]:
        owner = getattr(body, "name", "<lambda>")
        for node in ast.walk(body):
            if not isinstance(node, ast.Call):
                continue
            root = node.func
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in telemetry:
                yield self.finding(
                    module, node,
                    f"event handler {owner!r} performs telemetry through "
                    f"{root.id!r}",
                    hint=self.HANDLER_HINT,
                )


def default_rules(
    manifest_path: Optional[Path] = None,
    package_root: Optional[Path] = None,
) -> List[Rule]:
    """The standard rule set, in id order."""
    return [
        DeterminismRule(),
        FingerprintDriftRule(manifest_path=manifest_path, package_root=package_root),
        FrozenSpecRule(),
        WorkerPickleSafetyRule(),
        MutableDefaultArgRule(),
        DeprecatedKwargRule(),
        EventHandlerPurityRule(),
        BackendProtocolRule(),
        TelemetryPurityRule(),
    ]
