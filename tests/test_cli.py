"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "mapreduce"])
        assert args.platform == "aws"
        assert args.workload is None  # the paper's burst of 30

    def test_compare_accepts_era_repetitions_and_workload(self):
        args = build_parser().parse_args([
            "compare", "ml", "--era", "2022", "--repetitions", "2", "--workload", "warm",
        ])
        assert args.era == "2022"
        assert args.repetitions == 2
        assert args.workload == "warm"

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("flag", [["--mode", "warm"], ["--burst-size", "3"]])
    def test_run_and_compare_no_longer_take_trigger_flags(self, command, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "ml", *flag])

    def test_campaign_defaults(self):
        # Spec-shaping flags parse to None so --resume can detect explicit
        # values; the effective defaults (gcp/aws/azure, 2 seeds, ...) are
        # applied when the spec is built.
        args = build_parser().parse_args(["campaign", "--benchmarks", "ml"])
        assert args.platforms is None
        assert args.seeds is None
        assert args.workers is None
        assert args.cache_dir is None
        assert args.run_dir is None
        assert args.shard is None
        assert args.resume is None
        assert args.dry_run is False
        assert args.max_retries == 1

    def test_campaign_grid_flags(self):
        args = build_parser().parse_args([
            "campaign", "--benchmarks", "ml", "--run-dir", "/shared/run",
            "--shard", "1/4", "--lease-ttl", "30", "--worker-id", "host-a",
        ])
        assert args.run_dir == "/shared/run"
        assert args.shard == "1/4"
        assert args.lease_ttl == 30.0
        assert args.worker_id == "host-a"

    def test_campaign_status_and_merge_verbs(self):
        args = build_parser().parse_args(["campaign-status", "/shared/run"])
        assert args.run_dir == "/shared/run"
        args = build_parser().parse_args([
            "campaign-merge", "/shared/run", "--partial", "--output", "out.json",
        ])
        assert args.run_dir == "/shared/run"
        assert args.partial is True
        assert args.output == "out.json"


class TestCommands:
    def test_list_shows_benchmarks_and_platforms(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mapreduce" in out
        assert "selfish_detour" in out
        assert "azure" in out

    def test_stats_prints_model_statistics(self, capsys):
        assert main(["stats", "genome_1000"]) == 0
        out = capsys.readouterr().out
        assert "19" in out
        assert "definition problems: none" in out

    def test_stats_unknown_benchmark_fails(self, capsys):
        assert main(["stats", "nope"]) == 2

    def test_transcribe_to_stdout(self, capsys):
        assert main(["transcribe", "ml", "--platform", "aws"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        assert document["StartAt"] == "gen_phase"

    def test_transcribe_to_file(self, tmp_path, capsys):
        target = tmp_path / "ml_gcp.json"
        assert main(["transcribe", "ml", "--platform", "gcp", "--output", str(target)]) == 0
        document = json.loads(target.read_text())
        assert "main" in document

    def test_run_writes_result_json(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main([
            "run", "mapreduce", "--platform", "azure", "--workload", "burst:burst_size=3",
            "--seed", "1", "--output", str(target),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mapreduce on azure" in out
        document = json.loads(target.read_text())
        assert document["benchmark"] == "mapreduce"
        assert len(document["measurements"]) == 3

    def test_compare_prints_fastest_and_slowest(self, capsys):
        code = main([
            "compare", "ml", "--workload", "burst:burst_size=3", "--platforms", "aws", "azure",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fastest:" in out and "slowest:" in out

    def test_compare_warm_mode_with_repetitions(self, capsys):
        code = main([
            "compare", "ml", "--workload", "warm:burst_size=2", "--platforms", "aws",
            "--repetitions", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "platform comparison" in out

    def test_campaign_runs_sweep_and_writes_output(self, tmp_path, capsys):
        target = tmp_path / "campaign.json"
        code = main([
            "campaign", "--benchmarks", "mapreduce", "function_chain",
            "--platforms", "aws", "azure", "--seeds", "2",
            "--burst-size", "2", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"), "--output", str(target),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign: 8 cells" in out
        assert "platform comparison" in out
        assert "cost per 1000 executions" in out
        document = json.loads(target.read_text())
        assert len(document["cells"]) == 8
        assert len(document["comparison_table"]) == 4

        # A re-run with the same spec is served entirely from the cache.
        code = main([
            "campaign", "--benchmarks", "mapreduce", "function_chain",
            "--platforms", "aws", "azure", "--seeds", "2",
            "--burst-size", "2", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert "cache: 8/8 cells" in capsys.readouterr().out

    def test_campaign_unknown_benchmark_fails(self, capsys):
        assert main(["campaign", "--benchmarks", "nope"]) == 2
        assert "error: unknown benchmarks: nope" in capsys.readouterr().err

    def test_campaign_without_benchmarks_or_resume_fails(self, capsys):
        assert main(["campaign"]) == 2
        assert "--benchmarks is required" in capsys.readouterr().err

    def test_failed_campaign_without_cache_writes_partial_output(self, tmp_path, capsys):
        """Without --cache-dir, the salvaged cells on CampaignError are the
        only copy of completed work: they must reach --output."""
        import repro.cli as cli

        target = tmp_path / "partial.json"
        original = cli.parse_benchmark_spec
        try:
            cli.parse_benchmark_spec = lambda name: (name, {})
            code = main([
                "campaign", "--benchmarks", "mapreduce", "does_not_exist",
                "--platforms", "aws", "--seeds", "1", "--burst-size", "2",
                "--workers", "1", "--max-retries", "0", "--output", str(target),
            ])
        finally:
            cli.parse_benchmark_spec = original
        assert code == 3
        document = json.loads(target.read_text())
        assert len(document["cells"]) == 1
        assert document["cells"][0]["job"]["benchmark"] == "mapreduce"

    def test_campaign_failed_cell_reports_failure_and_salvage(self, tmp_path, capsys):
        # Bypass the CLI benchmark validation to exercise the execution-time
        # fault isolation: a cell that keeps failing names its job and exits 3.
        import repro.cli as cli

        original = cli.parse_benchmark_spec
        try:
            cli.parse_benchmark_spec = lambda name: (name, {})
            code = main([
                "campaign", "--benchmarks", "mapreduce", "does_not_exist",
                "--platforms", "aws", "--seeds", "1", "--burst-size", "2",
                "--workers", "1", "--max-retries", "0",
                "--cache-dir", str(tmp_path / "cache"),
            ])
        finally:
            cli.parse_benchmark_spec = original
        assert code == 3
        captured = capsys.readouterr()
        assert "1 campaign cell(s) failed" in captured.err
        assert "does_not_exist" in captured.err
        # The completed cells are surfaced despite the failure.
        assert "salvaged 1 completed cell(s)" in captured.out
        assert "platform comparison" in captured.out
        # The good cell was salvaged to the cache before the raise.
        assert main([
            "campaign", "--benchmarks", "mapreduce", "--platforms", "aws",
            "--seeds", "1", "--burst-size", "2", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        assert "cache: 1/1 cells" in capsys.readouterr().out

    def test_campaign_invalid_spec_reports_error(self, capsys):
        assert main(["campaign", "--benchmarks", "ml", "--seeds", "0"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["campaign", "--benchmarks", "ml", "--burst-size", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestWorkloadCli:
    def test_parser_accepts_workload_on_run_compare_campaign(self):
        args = build_parser().parse_args(
            ["run", "ml", "--workload", "poisson:rate=5,duration=10"]
        )
        assert args.workload == "poisson:rate=5,duration=10"
        args = build_parser().parse_args(["compare", "ml", "--workload", "burst"])
        assert args.workload == "burst"
        args = build_parser().parse_args([
            "campaign", "--benchmarks", "ml",
            "--workload", "burst", "poisson:rate=5,duration=10",
        ])
        assert args.workloads == ["burst", "poisson:rate=5,duration=10"]

    def test_run_with_open_loop_workload_prints_summary(self, capsys):
        code = main([
            "run", "function_chain", "--platform", "aws", "--seed", "3",
            "--workload", "poisson:rate=2,duration=10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "open-loop workload: poisson(duration=10,rate=2)" in out
        assert "throughput_per_s" in out

    def test_run_with_invalid_workload_reports_error(self, capsys):
        assert main(["run", "ml", "--workload", "chaotic"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_campaign_with_workload_sweep(self, tmp_path, capsys):
        code = main([
            "campaign", "--benchmarks", "function_chain", "--platforms", "aws",
            "--seeds", "1", "--workers", "1",
            "--workload", "burst:burst_size=2", "constant:rate=1,duration=5",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign: 2 cells" in out
        assert "2 workloads" in out
        assert "constant(duration=5,rate=1)" in out

    @pytest.mark.parametrize("legacy", [
        ["--mode", "warm"],
        ["--burst-size", "7"],
        ["--mode", "warm", "--burst-size", "7"],
    ])
    def test_campaign_rejects_workload_with_mode_or_burst_size(self, legacy, capsys):
        """Regression: --mode/--burst-size next to --workload were silently
        ignored (the dry run planned burst(burst_size=2) and exited 0)."""
        code = main([
            "campaign", "--benchmarks", "mapreduce", "--platforms", "aws",
            "--workload", "burst:burst_size=2", *legacy, "--dry-run",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "plan:" not in captured.out
        assert "--workload cannot be combined with" in captured.err
        for flag in legacy[::2]:
            assert flag in captured.err


class TestPlatformSpecCli:
    def scenario_file(self, tmp_path):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({
            "platforms": {
                "cli-test-variant": {"base": "aws",
                                     "overrides": {"cold_start": "x2"}},
            }
        }))
        return str(path)

    def test_list_prints_eras_and_scenarios(self, tmp_path, capsys):
        assert main(["list", "--scenarios", self.scenario_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Eras:" in out and "2022" in out and "2024" in out
        assert "cli-test-variant = aws:scaling.cold_start_median_s=x2" in out

    def test_run_accepts_platform_spec_strings(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main([
            "run", "function_chain", "--platform", "aws@2022:cold_start=x1.5",
            "--workload", "burst:burst_size=2", "--output", str(target),
        ])
        assert code == 0
        document = json.loads(target.read_text())
        assert document["config"]["era"] == "2022"
        assert document["config"]["platform_spec"]["base"] == "aws"
        assert document["config"]["platform_spec"]["overrides"]

    def test_run_with_scenario_name(self, tmp_path, capsys):
        code = main([
            "run", "function_chain", "--scenarios", self.scenario_file(tmp_path),
            "--platform", "cli-test-variant", "--workload", "burst:burst_size=2",
        ])
        assert code == 0
        assert "function_chain on cli-test-variant" in capsys.readouterr().out

    def test_compare_distinguishes_spec_variants(self, capsys):
        code = main([
            "compare", "function_chain", "--workload", "burst:burst_size=2",
            "--platforms", "aws", "aws@2022:cold_start=x3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "aws@2022:scaling.cold_start_median_s=x3" in out

    def test_campaign_sweeps_scenario_alongside_spec(self, tmp_path, capsys):
        """Acceptance: a scenario-file variant sweeps next to aws@2022-style
        specs from the CLI, with cache-able spec-aware fingerprints."""
        cache = str(tmp_path / "cache")
        argv = [
            "campaign", "--benchmarks", "function_chain",
            "--scenarios", self.scenario_file(tmp_path),
            "--platforms", "aws@2022", "cli-test-variant",
            "--seeds", "1", "--burst-size", "2", "--workers", "1",
            "--cache-dir", cache,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "campaign: 2 cells" in out
        assert "aws:scaling.cold_start_median_s=x2" in out
        assert main(argv) == 0
        assert "cache: 2/2 cells" in capsys.readouterr().out

    def test_unknown_platform_or_era_reports_error(self, capsys):
        assert main(["run", "ml", "--platform", "nope"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["run", "ml", "--era", "1999"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["campaign", "--benchmarks", "ml", "--eras", "1999"]) == 2
        assert "unknown era" in capsys.readouterr().err
        assert main(["campaign", "--benchmarks", "ml", "--platforms", "aws@1999"]) == 2
        assert "unknown era" in capsys.readouterr().err

    def test_run_with_conflicting_eras_reports_error(self, capsys):
        assert main([
            "run", "function_chain", "--platform", "aws@2022", "--era", "2024",
            "--workload", "burst:burst_size=2",
        ]) == 2
        assert "era" in capsys.readouterr().err
        assert main([
            "run", "function_chain", "--platform", "aws@2022", "--era", "2022",
            "--workload", "burst:burst_size=2",
        ]) == 0

    def test_missing_scenario_file_reports_error(self, capsys):
        assert main(["list", "--scenarios", "/nonexistent/scenarios.toml"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_campaign_header_counts_era_pinned_variants(self, tmp_path, capsys):
        code = main([
            "campaign", "--benchmarks", "function_chain",
            "--platforms", "aws@2022", "gcp", "--eras", "2022", "2024",
            "--seeds", "1", "--burst-size", "2", "--workers", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign: 3 cells" in out
        assert "3 platform-era variants" in out


class TestGridCli:
    ARGS = [
        "campaign", "--benchmarks", "function_chain",
        "--platforms", "aws", "azure", "--seeds", "2",
        "--burst-size", "2", "--workers", "1",
    ]

    def test_dry_run_prints_plan_without_executing(self, tmp_path, capsys):
        code = main(self.ARGS + [
            "--dry-run", "--shard", "0/2", "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign plan (dry run)" in out
        assert "this worker" in out
        assert "plan: 4 cells, 3 assigned to shard 0/2, 0 cached / 4 to compute" in out
        assert "platform comparison" not in out  # nothing was executed
        assert not (tmp_path / "cache").exists()

    def test_dry_run_reports_cache_hits(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(self.ARGS + ["--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--dry-run", "--cache-dir", cache]) == 0
        assert "4 cached / 0 to compute" in capsys.readouterr().out

    def test_shard_without_run_dir_fails(self, capsys):
        assert main(self.ARGS + ["--shard", "0/2"]) == 2
        assert "--shard needs a shared run directory" in capsys.readouterr().err

    def test_sharded_run_status_merge_resume_flow(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")

        # Shard 0 of 2: the run stays incomplete.
        assert main(self.ARGS + ["--run-dir", run_dir, "--shard", "0/2"]) == 0
        out = capsys.readouterr().out
        assert "run incomplete" in out

        assert main(["campaign-status", run_dir]) == 0
        out = capsys.readouterr().out
        assert "cells: 3/4 done, 0 failed, 0 leased, 1 pending" in out

        # A partial merge is allowed while the other shard is outstanding...
        assert main(["campaign-merge", run_dir, "--partial"]) == 0
        assert "merged 3/4 cells" in capsys.readouterr().out
        # ...but a strict merge refuses.
        assert main(["campaign-merge", run_dir]) == 2
        assert "incomplete" in capsys.readouterr().err

        # Resume picks up the remaining shard without the spec arguments.
        assert main(["campaign", "--resume", run_dir, "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "run complete: 4/4 cells done" in out
        assert "platform comparison" in out

        assert main(["campaign-status", run_dir]) == 0
        out = capsys.readouterr().out
        assert "cells: 4/4 done, 0 failed, 0 leased, 0 pending" in out
        assert "run complete" in out

        target = tmp_path / "merged.json"
        assert main(["campaign-merge", run_dir, "--output", str(target)]) == 0
        assert "merged 4/4 cells" in capsys.readouterr().out
        document = json.loads(target.read_text())
        assert len(document["cells"]) == 4

    def test_mismatched_shard_count_fails(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(self.ARGS + ["--run-dir", run_dir, "--shard", "0/2"]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--run-dir", run_dir, "--shard", "0/3"]) == 2
        assert "shard" in capsys.readouterr().err

    def test_run_dir_join_without_shard_finishes_the_run(self, tmp_path, capsys):
        """An ad-hoc helper can join an existing multi-shard run with
        --run-dir alone and work every remaining shard."""
        run_dir = str(tmp_path / "run")
        assert main(self.ARGS + ["--run-dir", run_dir, "--shard", "0/2"]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--run-dir", run_dir]) == 0
        assert "run complete: 4/4 cells done" in capsys.readouterr().out

    def test_dry_run_validates_shard_against_existing_run_dir(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(self.ARGS + ["--run-dir", run_dir, "--shard", "0/2"]) == 0
        capsys.readouterr()
        assert main(self.ARGS + [
            "--run-dir", run_dir, "--shard", "0/3", "--dry-run",
        ]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_resume_rejects_spec_flags(self, tmp_path, capsys):
        """Spec-shaping flags next to --resume would be silently ignored
        (the spec lives in the run directory), so they error instead."""
        run_dir = str(tmp_path / "run")
        assert main(self.ARGS + ["--run-dir", run_dir, "--shard", "0/2"]) == 0
        capsys.readouterr()
        assert main([
            "campaign", "--resume", run_dir, "--benchmarks", "ml",
        ]) == 2
        err = capsys.readouterr().err
        assert "--benchmarks" in err and "fresh run directory" in err
        # Flags with non-None effective defaults are detected too.
        assert main(["campaign", "--resume", run_dir, "--seeds", "5"]) == 2
        assert "--seeds" in capsys.readouterr().err
        assert main([
            "campaign", "--resume", run_dir, "--platforms", "aws",
        ]) == 2
        assert "--platforms" in capsys.readouterr().err
        assert main([
            "campaign", "--resume", run_dir, "--run-dir", str(tmp_path / "other"),
        ]) == 2
        assert "--run-dir" in capsys.readouterr().err
        # Non-spec flags (workers, cache, retries) remain valid with --resume.
        assert main(["campaign", "--resume", run_dir, "--workers", "1"]) == 0
        assert "run complete" in capsys.readouterr().out

    def test_dry_run_does_not_create_the_run_dir(self, tmp_path, capsys):
        fresh = tmp_path / "fresh"
        assert main(self.ARGS + [
            "--run-dir", str(fresh), "--shard", "0/2", "--dry-run",
        ]) == 0
        assert "campaign plan (dry run)" in capsys.readouterr().out
        assert not fresh.exists()

    def test_status_on_missing_run_dir_fails(self, tmp_path, capsys):
        assert main(["campaign-status", str(tmp_path / "nope")]) == 2
        assert "not a grid run directory" in capsys.readouterr().err


class TestFiguresCli:
    QUICK_9A = [
        "figures", "--artifacts", "figure9a", "--quick", "--platforms", "aws",
    ]

    def test_parser_figures_flags(self):
        args = build_parser().parse_args([
            "figures", "--artifacts", "figure7,table5", "--quick",
            "--run-dir", "/shared/run", "--watch", "--output", "out",
        ])
        assert args.artifacts == ["figure7,table5"]
        assert args.quick and args.watch
        assert args.run_dir == "/shared/run"
        assert args.cache_dir == ".repro-flow-cache"
        args = build_parser().parse_args(["report", "--quick"])
        assert args.command == "report"

    def test_list_artifacts(self, capsys):
        assert main(["figures", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure7", "figure16", "table5"):
            assert name in out

    def test_unknown_artifact_fails(self, capsys):
        assert main(["figures", "--artifacts", "figure99", "--no-cache"]) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_static_table_renders_without_cells(self, capsys):
        assert main(["figures", "--artifacts", "table2,table3", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Table 3" in out
        assert "0 campaign cell(s)" in out

    def test_figures_execute_render_export_and_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out_dir = tmp_path / "artifacts"
        code = main(self.QUICK_9A + [
            "--cache-dir", str(cache), "--output", str(out_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 campaign cell(s)" in out
        assert "Figure 9a" in out
        assert (out_dir / "figure9a.json").exists()
        assert (out_dir / "figure9a.txt").exists()
        # Re-render: every cell must be served from the cache (zero sims).
        assert main(self.QUICK_9A + ["--cache-dir", str(cache)]) == 0
        assert "cache: 2/2 cells served" in capsys.readouterr().out

    def test_figures_grid_run_dir_roundtrip(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        args = self.QUICK_9A + ["--run-dir", str(run_dir), "--no-cache"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 executed" in out
        assert "rendered" in out
        # Second invocation: everything already in the shard logs.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out and "2 already done" in out

    def test_plan_only_initialises_run_dir_without_executing(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(self.QUICK_9A + [
            "--run-dir", str(run_dir), "--no-cache", "--plan-only",
        ]) == 0
        out = capsys.readouterr().out
        assert "artifact campaign plan" in out
        assert (run_dir / "grid.json").exists()
        assert main(["campaign-status", str(run_dir)]) == 0
        assert "2 pending" in capsys.readouterr().out

    def test_render_only_partial_run_reports_pending(self, tmp_path, capsys):
        """A partially populated run dir renders the available artifacts and
        marks the rest pending -- the --watch building block."""
        run_dir = tmp_path / "run"
        both = [
            "figures", "--artifacts", "figure9a,figure16", "--quick",
            "--platforms", "aws", "--no-cache", "--run-dir", str(run_dir),
        ]
        assert main(both + ["--plan-only"]) == 0
        capsys.readouterr()
        # Execute only figure9a's cells into the shared cache, then merge
        # partially: figure9a renders, figure16 stays pending.
        cache = tmp_path / "cache"
        assert main(self.QUICK_9A + ["--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        rest = [
            "figures", "--artifacts", "figure9a,figure16", "--quick",
            "--platforms", "aws", "--cache-dir", str(cache),
            "--run-dir", str(run_dir), "--render-only",
        ]
        assert main(rest) == 0
        out = capsys.readouterr().out
        assert "Figure 9a" in out
        assert "pending (4 cell(s) missing)" in out

    def test_render_only_serves_from_warm_cache_without_executing(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(self.QUICK_9A + ["--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        # No run dir, no execution: the warm cell cache alone must render.
        assert main(self.QUICK_9A + [
            "--cache-dir", str(cache), "--render-only",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 9a" in out
        assert "rendered" in out and "pending" not in out

    def test_watch_on_complete_run_renders_and_exits(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(self.QUICK_9A + ["--run-dir", str(run_dir), "--no-cache"]) == 0
        capsys.readouterr()
        assert main(self.QUICK_9A + [
            "--run-dir", str(run_dir), "--no-cache", "--watch",
            "--watch-interval", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "[watch] 2/2 cells merged" in out
        assert "Figure 9a" in out

    def test_save_and_from_campaign_round_trip(self, tmp_path, capsys):
        saved = tmp_path / "campaign.json"
        assert main(self.QUICK_9A + [
            "--no-cache", "--save-campaign", str(saved),
        ]) == 0
        first = capsys.readouterr().out
        assert main(self.QUICK_9A + ["--from-campaign", str(saved)]) == 0
        second = capsys.readouterr().out
        assert "Figure 9a" in second
        # The rendered series must be identical to the executing invocation.
        assert first.split("artifacts")[0].split("Figure 9a")[1] == \
            second.split("artifacts")[0].split("Figure 9a")[1]

    def test_bare_figures_requires_a_selection(self, capsys):
        assert main(["figures"]) == 2
        assert "--artifacts" in capsys.readouterr().err

    def test_figures_exit_3_when_cells_fail_permanently(self, tmp_path, capsys):
        from repro.analysis import artifacts

        artifacts._ensure_builders()
        snapshot = dict(artifacts._ARTIFACTS)
        try:
            artifacts.register_artifact(artifacts.ArtifactSpec(
                name="doomed", title="doomed", kind="figure",
                # Valid base name, bogus factory parameter: planning accepts
                # it, execution fails every attempt.
                cells=lambda config: (artifacts.CellRequest(
                    benchmark="storage_io:bogus_param=1", platform="aws",
                    workload=artifacts.WorkloadSpec.burst(2), seed=0,
                ),),
                build=lambda campaign, config: [],
            ))
            code = main([
                "figures", "--artifacts", "doomed", "--no-cache",
                "--run-dir", str(tmp_path / "run"), "--max-retries", "0",
            ])
        finally:
            artifacts._ARTIFACTS.clear()
            artifacts._ARTIFACTS.update(snapshot)
        assert code == 3
        captured = capsys.readouterr()
        assert "1 campaign cell(s) failed permanently" in captured.err
        assert "pending" in captured.out

    def test_report_renders_every_artifact(self, tmp_path, capsys):
        code = main([
            "report", "--quick", "--benchmarks", "mapreduce",
            "--platforms", "aws", "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        for title in ("Figure 7", "Figure 14", "Table 5"):
            assert title in out
        assert "pending" not in out
