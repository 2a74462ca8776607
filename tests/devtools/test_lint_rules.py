"""Per-rule tests: each rule against its positive and negative fixture."""

from pathlib import Path

from repro.devtools.lint.framework import Severity, run_lint
from repro.devtools.lint.rules import (
    DeterminismRule,
    DeprecatedKwargRule,
    FrozenSpecRule,
    MutableDefaultArgRule,
    WorkerPickleSafetyRule,
)

FIXTURES = Path(__file__).resolve().parent.parent / "lint_fixtures"


def lint_fixture(name, rule):
    return run_lint([FIXTURES / name], [rule], root=FIXTURES)


class TestR001Determinism:
    def test_flags_every_banned_source(self):
        findings = lint_fixture("r001_bad.py", DeterminismRule())
        messages = [f.message for f in findings]
        assert len(findings) == 10
        assert all(f.rule_id == "R001" for f in findings)
        # RNG draws through both the stdlib and numpy (incl. aliased imports).
        assert sum("random.random()" in m for m in messages) == 1
        assert any("numpy.random.default_rng" in m for m in messages)
        assert any("numpy.random.uniform" in m for m in messages)  # npr alias
        # Wall clocks and tokens.
        assert any("time.time()" in m for m in messages)
        assert any("datetime.datetime.now" in m for m in messages)
        assert any("os.urandom" in m for m in messages)
        assert any("uuid.uuid4" in m for m in messages)

    def test_hints_point_at_named_streams(self):
        findings = lint_fixture("r001_bad.py", DeterminismRule())
        rng_hits = [f for f in findings if "RNG" in f.message]
        assert rng_hits and all("repro.sim.rng" in f.hint for f in rng_hits)

    def test_clean_on_sanctioned_and_lookalike_code(self):
        assert lint_fixture("r001_good.py", DeterminismRule()) == []

    def test_flags_builtin_hash_of_non_int_values(self):
        findings = lint_fixture("r001_hash_bad.py", DeterminismRule())
        assert [f.line for f in findings] == [5, 9, 13, 18]
        assert all("PYTHONHASHSEED" in f.message for f in findings)
        assert all("derive_stream_seed" in f.hint for f in findings)

    def test_clean_on_int_and_protocol_hashes(self):
        assert lint_fixture("r001_hash_good.py", DeterminismRule()) == []

    def test_imported_hash_is_not_the_builtin(self, tmp_path):
        source = tmp_path / "custom.py"
        source.write_text("from hashing import hash\nvalue = hash('cell')\n")
        assert run_lint([source], [DeterminismRule()], root=tmp_path) == []

    def test_real_source_tree_has_no_salted_hashes(self):
        root = Path(__file__).resolve().parents[2] / "src"
        modules = sorted((root / "repro").rglob("*.py"))
        assert modules
        assert run_lint(modules, [DeterminismRule()], root=root) == []

    def test_allowlisted_paths_are_skipped_entirely(self, tmp_path):
        nested = tmp_path / "sim"
        nested.mkdir()
        bad = nested / "rng.py"
        bad.write_text("import random\nvalue = random.random()\n")
        rule = DeterminismRule()
        assert run_lint([bad], [rule], root=tmp_path) == []
        # The same content outside the allowlist is flagged.
        other = nested / "engine.py"
        other.write_text(bad.read_text())
        assert len(run_lint([other], [rule], root=tmp_path)) == 1


class TestR003FrozenSpec:
    def test_flags_unfrozen_and_mutable_default_specs(self):
        findings = lint_fixture("r003_bad.py", FrozenSpecRule())
        assert len(findings) == 5
        by_message = "\n".join(f.message for f in findings)
        assert "UnfrozenSpec is not frozen" in by_message
        assert "ExplicitlyUnfrozenSpec is not frozen" in by_message
        assert "MutableDefaultSpec has mutable default field 'entries'" in by_message
        assert "MutableDefaultSpec has mutable default field 'table'" in by_message
        assert "LiteralDefaultSpec has mutable default field 'raw'" in by_message

    def test_clean_on_compliant_specs_and_non_specs(self):
        assert lint_fixture("r003_good.py", FrozenSpecRule()) == []


class TestR004WorkerPickleSafety:
    def test_flags_unpicklable_submissions(self):
        findings = lint_fixture("r004_bad.py", WorkerPickleSafetyRule())
        messages = [f.message for f in findings]
        assert len(findings) == 7
        assert sum("lambda submitted" in m for m in messages) == 1
        assert sum("nested function 'scaled'" in m for m in messages) == 1
        assert sum("reads module-level mutable state 'PENDING'" in m
                   for m in messages) == 1
        assert sum("lambda in a worker-pool payload" in m for m in messages) == 1
        assert sum("open file handle" in m for m in messages) == 1
        assert sum("a lock in a worker-pool payload" in m for m in messages) == 1
        assert sum("per-process state 'PENDING' pickled" in m
                   for m in messages) == 1

    def test_mutable_global_read_is_a_warning(self):
        findings = lint_fixture("r004_bad.py", WorkerPickleSafetyRule())
        global_reads = [f for f in findings
                        if "reads module-level mutable state" in f.message]
        assert all(f.severity is Severity.WARNING for f in global_reads)
        rest = [f for f in findings
                if "reads module-level mutable state" not in f.message]
        assert all(f.severity is Severity.ERROR for f in rest)

    def test_pickled_memo_state_is_an_error(self):
        findings = lint_fixture("r004_bad.py", WorkerPickleSafetyRule())
        pickled = [f for f in findings if "pickled into" in f.message]
        assert len(pickled) == 1
        assert pickled[0].severity is Severity.ERROR

    def test_clean_on_module_level_workers(self):
        assert lint_fixture("r004_good.py", WorkerPickleSafetyRule()) == []


class TestR005MutableDefaultArg:
    def test_flags_every_mutable_default(self):
        findings = lint_fixture("r005_bad.py", MutableDefaultArgRule())
        assert len(findings) == 6
        owners = "\n".join(f.message for f in findings)
        assert "'list_default'" in owners
        assert "'dict_default'" in owners
        assert owners.count("'set_and_call_defaults'") == 2
        assert "'keyword_only'" in owners
        assert "'<lambda>'" in owners

    def test_clean_on_none_idiom_and_immutables(self):
        assert lint_fixture("r005_good.py", MutableDefaultArgRule()) == []


class TestR006DeprecatedKwarg:
    def test_flags_each_deprecated_callee_kwarg_pair(self):
        findings = lint_fixture("r006_bad.py", DeprecatedKwargRule())
        pairs = sorted(
            (f.message.split(" passed to ")[1], f.message.split()[2])
            for f in findings
        )
        assert pairs == [
            ("CampaignSpec", "burst_size="),
            ("CampaignSpec", "mode="),
            ("CampaignSpec", "mode="),
        ]

    def test_clean_on_modern_call_style(self):
        # Includes WorkloadSpec.burst(burst_size=...), which is legal: the
        # rule is per-callee, not per-kwarg-name.
        assert lint_fixture("r006_good.py", DeprecatedKwargRule()) == []


class TestR007EventHandlerPurity:
    def test_flags_impure_handlers(self):
        from repro.devtools.lint.rules import EventHandlerPurityRule

        findings = lint_fixture("r007_bad.py", EventHandlerPurityRule())
        messages = [f.message for f in findings]
        assert all(f.rule_id == "R007" for f in findings)
        # One finding per sin: RNG draw, wall clock, global mutation, and the
        # RNG-drawing lambda on the batch lane.
        assert any("'drawing_handler' calls random.random()" in m for m in messages)
        assert any("'clock_handler' calls time.time()" in m for m in messages)
        assert any("'global_handler' declares global TALLY" in m for m in messages)
        assert any("'<lambda>' calls random.randint()" in m for m in messages)
        assert len(findings) == 4  # each handler reported once, however registered

    def test_hints_point_at_named_streams_and_closures(self):
        from repro.devtools.lint.rules import EventHandlerPurityRule

        findings = lint_fixture("r007_bad.py", EventHandlerPurityRule())
        assert findings
        assert all("named RNG streams" in f.hint for f in findings)

    def test_clean_on_pure_handlers_and_lookalikes(self):
        from repro.devtools.lint.rules import EventHandlerPurityRule

        assert lint_fixture("r007_good.py", EventHandlerPurityRule()) == []

    def test_devtools_paths_are_skipped(self, tmp_path):
        from repro.devtools.lint.framework import run_lint
        from repro.devtools.lint.rules import EventHandlerPurityRule

        nested = tmp_path / "devtools"
        nested.mkdir()
        source = (
            "import random\n"
            "def handler():\n"
            "    return random.random()\n"
            "def wire(env):\n"
            "    env.schedule_call(1.0, handler)\n"
        )
        allowed = nested / "bench.py"
        allowed.write_text(source)
        rule = EventHandlerPurityRule()
        assert run_lint([allowed], [rule], root=tmp_path) == []
        flagged = tmp_path / "engine.py"
        flagged.write_text(source)
        assert len(run_lint([flagged], [rule], root=tmp_path)) == 1


class TestR008BackendProtocol:
    def test_flags_gaps_drift_and_filesystem_leaks(self):
        from repro.devtools.lint.rules import BackendProtocolRule

        findings = lint_fixture("r008_bad.py", BackendProtocolRule())
        messages = [f.message for f in findings]
        assert all(f.rule_id == "R008" for f in findings)
        # IncompleteBackend: two missing protocol methods.
        assert any(
            "'IncompleteBackend' is missing protocol method renew" in m
            for m in messages
        )
        assert any(
            "'IncompleteBackend' is missing protocol method active" in m
            for m in messages
        )
        # MismatchedBackend: two renamed/dropped-parameter signatures.
        assert any(
            "'MismatchedBackend' method claim has signature "
            "(self, fp, who, lease_seconds)" in m
            for m in messages
        )
        assert any(
            "'MismatchedBackend' method append_record" in m for m in messages
        )
        # LeakyBackend: pathlib, open(), and os filesystem access.
        assert any(
            "'LeakyBackend' performs filesystem access: pathlib.Path()" in m
            for m in messages
        )
        assert any(
            "'LeakyBackend' performs filesystem access: open()" in m
            for m in messages
        )
        assert any(
            "'LeakyBackend' performs filesystem access: os.listdir()" in m
            for m in messages
        )
        assert len(findings) == 7

    def test_hints_point_at_the_protocol_and_the_medium(self):
        from repro.devtools.lint.rules import BackendProtocolRule

        findings = lint_fixture("r008_bad.py", BackendProtocolRule())
        assert findings
        for finding in findings:
            if "filesystem access" in finding.message:
                assert "FileBackend's private concern" in finding.hint
            else:
                assert "repro.faas.backends.base.GridBackend" in finding.hint

    def test_clean_on_compliant_file_backend_and_bystanders(self):
        from repro.devtools.lint.rules import BackendProtocolRule

        assert lint_fixture("r008_good.py", BackendProtocolRule()) == []

    def test_backends_package_modules_are_filesystem_free(self, tmp_path):
        from repro.devtools.lint.framework import run_lint
        from repro.devtools.lint.rules import BackendProtocolRule

        package = tmp_path / "faas" / "backends"
        package.mkdir(parents=True)
        source = (
            "import os\n"
            "def helper(path):\n"
            "    return os.listdir(path)\n"
        )
        # Module-level filesystem access in the package is flagged even
        # outside a backend class body...
        leaky = package / "redis.py"
        leaky.write_text(source)
        rule = BackendProtocolRule()
        assert len(run_lint([leaky], [rule], root=tmp_path)) == 1
        # ...but file.py is the sanctioned home for it.
        sanctioned = package / "file.py"
        sanctioned.write_text(source)
        assert run_lint([sanctioned], [rule], root=tmp_path) == []

    def test_real_backends_lint_clean(self):
        from repro.devtools.lint.rules import BackendProtocolRule

        root = Path(__file__).resolve().parents[2] / "src"
        modules = sorted((root / "repro" / "faas" / "backends").glob("*.py"))
        assert modules
        assert run_lint(modules, [BackendProtocolRule()], root=root) == []


class TestR009TelemetryPurity:
    def test_flags_telemetry_inside_handlers(self):
        from repro.devtools.lint.rules import TelemetryPurityRule

        findings = lint_fixture("r009_bad.py", TelemetryPurityRule())
        messages = [f.message for f in findings]
        assert all(f.rule_id == "R009" for f in findings)
        # One per instrumented handler: the span in the scheduled tick, the
        # counter inc in the event callback, the span in the batch lambda.
        assert any("'_tick' performs telemetry through 'span'" in m
                   for m in messages)
        assert any(
            "'_on_done' performs telemetry through 'current_registry'" in m
            for m in messages
        )
        assert any("'<lambda>' performs telemetry through 'span'" in m
                   for m in messages)
        assert len(findings) == 3
        assert all("set_monitor" in f.hint for f in findings)

    def test_clean_on_seam_attachment_and_non_handler_telemetry(self):
        from repro.devtools.lint.rules import TelemetryPurityRule

        assert lint_fixture("r009_good.py", TelemetryPurityRule()) == []

    def test_sim_paths_ban_the_import_outright(self):
        from repro.devtools.lint.rules import TelemetryPurityRule

        findings = lint_fixture("sim/r009_sim_bad.py", TelemetryPurityRule())
        assert len(findings) == 1
        assert "simulation module imports the observability package" \
            in findings[0].message
        assert "set_monitor" not in findings[0].message
        assert "EngineMonitor" in findings[0].hint

    def test_observability_and_devtools_paths_are_skipped(self, tmp_path):
        from repro.devtools.lint.framework import run_lint
        from repro.devtools.lint.rules import TelemetryPurityRule

        source = (
            "from repro.observability import span\n"
            "def handler():\n"
            "    with span('x'):\n"
            "        pass\n"
            "def wire(env):\n"
            "    env.schedule_call(1.0, handler)\n"
        )
        nested = tmp_path / "observability"
        nested.mkdir()
        allowed = nested / "spans.py"
        allowed.write_text(source)
        rule = TelemetryPurityRule()
        assert run_lint([allowed], [rule], root=tmp_path) == []
        flagged = tmp_path / "bench_like.py"
        flagged.write_text(source)
        assert len(run_lint([flagged], [rule], root=tmp_path)) == 1

    def test_real_source_tree_lints_clean(self):
        from repro.devtools.lint.rules import TelemetryPurityRule

        root = Path(__file__).resolve().parents[2] / "src"
        modules = sorted((root / "repro").rglob("*.py"))
        assert modules
        assert run_lint(modules, [TelemetryPurityRule()], root=root) == []
