"""Command-line interface of the SeBS-Flow reproduction.

Mirrors the workflow of the original suite's ``sebs.py`` tool at a smaller
scale: list the available benchmarks and platforms, inspect a benchmark's
model statistics, transcribe its definition for a platform, run an experiment,
and compare platforms.

Platforms are identified by spec strings (``aws``, ``aws@2022``,
``azure@2024:cold_start=x1.5,region=eu-west``) or by scenario names defined
in a ``--scenarios`` TOML/JSON file, so what-if variants sweep exactly like
the builtin clouds.

Usage examples::

    repro-flow list
    repro-flow stats mapreduce
    repro-flow transcribe mapreduce --platform gcp
    repro-flow run mapreduce --platform aws --workload burst:burst_size=10 --output result.json
    repro-flow run ml --platform aws@2022:cold_start=x1.5
    repro-flow run ml --workload poisson:rate=50,duration=120
    repro-flow compare ml --workload burst:burst_size=10
    repro-flow compare ml --platforms aws aws@2022 --workload burst:burst_size=5
    repro-flow campaign --benchmarks mapreduce ml --seeds 2 --workers 4
    repro-flow campaign --benchmarks ml --workload burst poisson:rate=5,duration=30
    repro-flow campaign --benchmarks ml --scenarios scenarios.toml \
        --platforms aws my-custom-variant

Campaigns scale across hosts through a shared run directory (see
``repro.faas.grid``): each host executes one planner shard, progress streams
into per-shard logs, and an interrupted run resumes where it left off::

    repro-flow campaign --benchmarks ml --run-dir /shared/run1 --shard 0/2
    repro-flow campaign --benchmarks ml --run-dir /shared/run1 --shard 1/2
    repro-flow campaign-status /shared/run1
    repro-flow campaign-merge /shared/run1 --output campaign.json
    repro-flow campaign --resume /shared/run1
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis import artifacts as artifact_pipeline
from .analysis import report
from .benchmarks import benchmark_names, get_benchmark, parse_benchmark_spec
from .faas import (
    CampaignError,
    CampaignResult,
    CampaignSpec,
    GridRun,
    autoscale_hint,
    compare_platforms,
    create_backend,
    grid_status,
    iter_partial_merges,
    load_cached_campaign,
    load_campaign_document,
    merge_run,
    parse_shard,
    probe_cache,
    run_benchmark,
    run_campaign,
    run_grid_worker,
    shard_of,
)
from .core.transcription import AWSTranscriber, AzureTranscriber, GCPTranscriber
from .devtools.bench.cli import add_bench_arguments
from .devtools.bench.cli import run_from_args as bench_run_from_args
from .devtools.lint.cli import add_lint_arguments
from .devtools.lint.cli import run_from_args as lint_run_from_args
from .faas.grid import DEFAULT_LEASE_TTL_S
from .faas.results import result_to_dict
from .observability import telemetry_session
from .serve import (
    aggregate_run_metrics,
    cache_hit_rate,
    cells_per_second,
    serve as serve_run,
)
from .sim.platforms.spec import (
    DEFAULT_ERA,
    PlatformSpec,
    available_eras,
    available_platforms,
    available_scenarios,
    load_scenarios,
)

#: Default per-cell cache directory of ``repro-flow figures``/``report`` --
#: rendering the same artifacts twice must not simulate anything twice.
DEFAULT_FIGURES_CACHE = ".repro-flow-cache"

_TRANSCRIBERS = {
    "aws": AWSTranscriber,
    "gcp": GCPTranscriber,
    "azure": AzureTranscriber,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-flow",
        description="SeBS-Flow reproduction: benchmark serverless workflows on simulated clouds",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list benchmarks, platforms, eras, and scenarios"
    )
    list_parser.add_argument("--scenarios", default=None, help="also list this scenario file")

    stats = subparsers.add_parser("stats", help="show a benchmark's model statistics")
    stats.add_argument("benchmark", help="benchmark name (see `repro-flow list`)")

    transcribe = subparsers.add_parser(
        "transcribe", help="transcribe a benchmark definition to a platform format"
    )
    transcribe.add_argument("benchmark")
    transcribe.add_argument("--platform", default="aws", choices=sorted(_TRANSCRIBERS))
    transcribe.add_argument("--output", help="write the document to this file instead of stdout")

    workload_help = (
        "workload spec, e.g. burst:burst_size=30, warm:settle_s=5, "
        "poisson:rate=50,duration=120, constant:rate=10,duration=60, "
        "ramp:start_rate=1,end_rate=20,duration=300, trace:path=arrivals.json"
    )
    platform_help = (
        "platform spec: a registered platform or scenario name, optionally with "
        "@era and overrides, e.g. aws, aws@2022, "
        "azure@2024:cold_start=x1.5,region=eu-west "
        f"(platforms registered at startup: {', '.join(available_platforms())}; "
        f"names from --scenarios are also accepted)"
    )
    # Era/platform vocabularies come from the registry, never from literals
    # here: eras registered by library code or scenario files are accepted
    # everywhere (validation happens at resolution, with a KeyError naming
    # the registered options; the help text is rendered before --scenarios
    # is processed, so it can only show the startup registry).
    era_help = (
        f"measurement era (registered at startup: {', '.join(available_eras())}; "
        f"eras pinned by --scenarios entries are also accepted)"
    )
    scenarios_help = (
        "TOML/JSON scenario file defining named platform variants; the names "
        "become valid --platform/--platforms entries"
    )

    run = subparsers.add_parser("run", help="run one benchmark on one platform")
    run.add_argument("benchmark")
    run.add_argument("--platform", default="aws", help=platform_help)
    run.add_argument("--repetitions", type=int, default=1)
    run.add_argument("--workload", default=None,
                     help=f"{workload_help} (default: burst:burst_size=30)")
    run.add_argument("--era", default=None, help=era_help)
    run.add_argument("--scenarios", default=None, help=scenarios_help)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--memory-mb", type=int, default=None)
    run.add_argument("--output", help="write the full result as JSON to this file")

    compare = subparsers.add_parser("compare", help="run one benchmark on all cloud platforms")
    compare.add_argument("benchmark")
    compare.add_argument("--repetitions", type=int, default=1)
    compare.add_argument("--workload", default=None,
                         help=f"{workload_help} (default: burst:burst_size=30)")
    compare.add_argument("--era", default=None, help=era_help)
    compare.add_argument("--scenarios", default=None, help=scenarios_help)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--platforms", nargs="+", default=["gcp", "aws", "azure"], help=platform_help
    )

    campaign = subparsers.add_parser(
        "campaign",
        help="run a benchmarks x platforms x eras x memory x seeds sweep in parallel",
    )
    # Spec-shaping flags default to None (the effective defaults are applied
    # in _cmd_campaign): --resume reads the spec from the run directory, and
    # a None default is how an explicitly passed flag -- which would be
    # silently ignored there -- is detected and rejected.
    campaign.add_argument("--benchmarks", nargs="+", default=None)
    campaign.add_argument(
        "--platforms", nargs="+", default=None,
        help=f"{platform_help} (default: gcp aws azure)",
    )
    campaign.add_argument("--eras", nargs="+", default=None, help=era_help)
    campaign.add_argument("--scenarios", default=None, help=scenarios_help)
    campaign.add_argument(
        "--memory-configs", nargs="+", type=int, default=None,
        help="memory configurations in MB (default: each benchmark's own configuration)",
    )
    campaign.add_argument(
        "--seeds", type=int, default=None,
        help="number of seed replicates per cell (default: 2)",
    )
    campaign.add_argument("--base-seed", type=int, default=None,
                          help="campaign base seed (default: 0)")
    campaign.add_argument("--burst-size", type=int, default=None,
                          help="burst size (default: 30)")
    campaign.add_argument("--repetitions", type=int, default=None,
                          help="repetitions per cell (default: 1)")
    campaign.add_argument("--mode", choices=("burst", "warm"), default=None,
                          help="trigger mode (default: burst)")
    campaign.add_argument(
        "--workload", nargs="+", default=None, dest="workloads",
        help=f"workload sweep dimension (replaces --mode/--burst-size); each "
             f"entry is a {workload_help}",
    )
    campaign.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per CPU; 1 runs serially)",
    )
    campaign.add_argument(
        "--cache-dir", default=None,
        help="directory for the per-cell result cache (re-runs skip cached cells)",
    )
    campaign.add_argument("--output", help="write the aggregated campaign result as JSON")
    campaign.add_argument(
        "--run-dir", default=None,
        help="durable grid run directory shared between workers/hosts; progress "
             "streams into per-shard logs and the run survives interruption",
    )
    campaign.add_argument(
        "--backend", default=None, metavar="BACKEND",
        help="grid coordination backend: 'file' (the default; state lives "
             "under --run-dir), 'memory[://NAME]' (in-process store -- the "
             "whole run executes and merges within this invocation), or "
             "'fake-object://BUCKET[/PREFIX]' (local object-store fake with "
             "S3/GCS conditional-put semantics)",
    )
    campaign.add_argument(
        "--shard", default=None, metavar="I/N",
        help="execute only planner shard I of N (requires --run-dir or --resume); "
             "disjoint hosts given 0/N .. N-1/N never collide",
    )
    campaign.add_argument(
        "--resume", default=None, metavar="RUN_DIR",
        help="continue an interrupted grid run from its run directory; the "
             "campaign spec is read from the directory, so spec flags "
             "(--benchmarks, --workload, ...) must not be combined with it",
    )
    campaign.add_argument(
        "--dry-run", action="store_true",
        help="print the expanded cell plan (count, shard assignment with "
             "--shard, cache hit/miss with --cache-dir) without executing",
    )
    campaign.add_argument(
        "--max-retries", type=int, default=1,
        help="retries per cell for transient worker failures (default: 1)",
    )
    campaign.add_argument(
        "--lease-ttl", type=float, default=DEFAULT_LEASE_TTL_S,
        help="grid lease time-to-live in seconds; a crashed worker's cells are "
             "reclaimed after this long (default: %(default)s)",
    )
    campaign.add_argument(
        "--worker-id", default=None,
        help="grid worker identity in leases/logs (default: hostname-pid)",
    )
    campaign.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="stream metrics snapshots and span events as JSONL into this "
             "directory (one file per process; point it at RUN_DIR/telemetry "
             "so campaign-status --metrics and `repro-flow serve` find it)",
    )

    status = subparsers.add_parser(
        "campaign-status", help="report per-shard progress of a grid run directory"
    )
    status.add_argument("run_dir", help="grid run directory (see campaign --run-dir)")
    status.add_argument(
        "--metrics", action="store_true",
        help="also merge the workers' --telemetry streams into a cluster-wide "
             "metrics view (cells/sec, cache hit rate, queue depth)",
    )
    status.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="telemetry directory for --metrics (default: RUN_DIR/telemetry)",
    )

    merge = subparsers.add_parser(
        "campaign-merge",
        help="fold a grid run's shard logs (and cell cache) into one campaign result",
    )
    merge.add_argument("run_dir", help="grid run directory (see campaign --run-dir)")
    merge.add_argument(
        "--cache-dir", default=None,
        help="also fold cells from this per-cell result cache",
    )
    merge.add_argument(
        "--partial", action="store_true",
        help="merge whatever is finished so far (workers may still be live)",
    )
    merge.add_argument("--output", help="write the merged campaign result as JSON")

    serve_parser = subparsers.add_parser(
        "serve",
        help="HTTP front door onto a grid run: /metrics (Prometheus), "
             "/status (JSON), /events (SSE merge progress)",
    )
    serve_parser.add_argument("run_dir", help="grid run directory (see campaign --run-dir)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8000,
                              help="listen port (0 picks a free one; default: %(default)s)")
    serve_parser.add_argument(
        "--cache-dir", default=None,
        help="per-cell result cache folded into the /events partial merges",
    )
    serve_parser.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="telemetry directory to aggregate (default: RUN_DIR/telemetry)",
    )
    serve_parser.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between /events progress polls (default: %(default)s)",
    )

    figures = subparsers.add_parser(
        "figures",
        help="render paper figures/tables from ONE planned, deduplicated campaign",
    )
    figures.add_argument(
        "--artifacts", nargs="+", default=None, metavar="NAME",
        help="artifact names (space or comma separated, e.g. figure7,table5); "
             "see --list",
    )
    figures.add_argument("--all", action="store_true",
                         help="render every registered figure and table")
    figures.add_argument("--list", action="store_true", dest="list_artifacts",
                         help="list the registered artifacts and exit")
    _add_artifact_source_args(figures)
    figures.add_argument(
        "--output", default=None, metavar="DIR",
        help="write one <artifact>.json (+ .txt) per artifact into this directory",
    )

    paper_report = subparsers.add_parser(
        "report",
        help="render the full paper report (every figure and table) in one go",
    )
    _add_artifact_source_args(paper_report)
    paper_report.add_argument(
        "--output", default=None, metavar="DIR",
        help="write per-artifact JSON/text exports plus report.txt into this directory",
    )

    lint = subparsers.add_parser(
        "lint",
        help="AST-based invariant linter: determinism, fingerprint stability, "
             "worker-safety (exit 4 on findings)",
    )
    add_lint_arguments(lint)

    bench = subparsers.add_parser(
        "bench",
        help="performance harness: engine events/sec, campaign cells/sec, "
             "grid merge throughput (exit 5 on regression vs --compare)",
    )
    add_bench_arguments(bench)

    return parser


def _add_artifact_source_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``figures`` and ``report``: how to source the cells."""
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test scale: burst 3 and shrunken sweep series")
    parser.add_argument("--burst-size", type=int, default=30,
                        help="E1 burst size (the paper uses 30; --quick caps it at 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--benchmarks", nargs="+", default=None,
        help="restrict the E1-style artifacts to these application benchmarks",
    )
    parser.add_argument(
        "--platforms", nargs="+", default=None,
        help="platform specs for the cloud comparisons (default: gcp aws azure)",
    )
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: one per CPU)")
    parser.add_argument(
        "--cache-dir", default=DEFAULT_FIGURES_CACHE,
        help="per-cell result cache; re-renders are simulation-free "
             "(default: %(default)s)",
    )
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the per-cell cache")
    parser.add_argument(
        "--run-dir", default=None,
        help="execute the planned campaign over a durable grid run directory "
             "(shardable across hosts; see `campaign --run-dir`)",
    )
    parser.add_argument("--shard", default=None, metavar="I/N",
                        help="with --run-dir: execute only planner shard I of N")
    parser.add_argument(
        "--plan-only", action="store_true",
        help="print the unioned campaign plan (and initialise --run-dir) "
             "without executing",
    )
    parser.add_argument(
        "--render-only", action="store_true",
        help="do not execute anything: render from the run dir / cache / "
             "campaign file as-is (incomplete artifacts report as pending)",
    )
    parser.add_argument(
        "--watch", action="store_true",
        help="with --run-dir: poll partial merges and re-render artifacts live "
             "as grid workers stream results",
    )
    parser.add_argument("--watch-interval", type=float, default=2.0,
                        help="seconds between --watch polls (default: %(default)s)")
    parser.add_argument(
        "--watch-polls", type=int, default=None,
        help="stop --watch after this many polls even if incomplete",
    )
    parser.add_argument(
        "--from-campaign", default=None, metavar="FILE",
        help="render from a campaign JSON written with --save-campaign "
             "(no execution)",
    )
    parser.add_argument(
        "--save-campaign", default=None, metavar="FILE",
        help="write the executed campaign (full per-cell results) as JSON; "
             "feed it back via --from-campaign",
    )
    parser.add_argument("--max-retries", type=int, default=1)
    parser.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL_S)
    parser.add_argument("--worker-id", default=None)


def _cmd_list(scenarios: Optional[str] = None) -> int:
    if scenarios:
        load_scenarios(scenarios)
    print("Application benchmarks:")
    for name in benchmark_names("application"):
        print(f"  {name}")
    print("Microbenchmarks:")
    for name in benchmark_names("micro"):
        print(f"  {name}")
    print("Platforms:")
    for name in available_platforms():
        print(f"  {name}")
    print("Eras:")
    for era in available_eras():
        print(f"  {era}")
    registered = available_scenarios()
    if registered:
        print("Scenarios:")
        for name, spec in registered.items():
            print(f"  {name} = {spec.canonical()}")
    return 0


def _cmd_stats(benchmark_name: str) -> int:
    benchmark = get_benchmark(benchmark_name)
    stats = benchmark.statistics()
    print(report.format_table([stats.as_row()], f"Model statistics for {benchmark_name}"))
    print(f"memory configuration: {benchmark.memory_mb} MB")
    print(f"functions: {', '.join(benchmark.function_names())}")
    problems = benchmark.definition.validate(known_functions=benchmark.functions)
    print(f"definition problems: {problems or 'none'}")
    return 0


def _cmd_transcribe(benchmark_name: str, platform: str, output: Optional[str]) -> int:
    benchmark = get_benchmark(benchmark_name)
    transcriber = _TRANSCRIBERS[platform]()
    result = transcriber.transcribe(benchmark.definition, benchmark.array_sizes)
    document = json.dumps(result.document, indent=2, default=str)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {platform} document for {benchmark_name} to {output}")
    else:
        print(document)
    print(
        f"# states: {result.state_count}, estimated transitions/history events per "
        f"execution: {result.transition_estimate}",
        file=sys.stderr,
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scenarios:
        load_scenarios(args.scenarios)
    benchmark = get_benchmark(args.benchmark)
    platform = PlatformSpec.coerce(args.platform).with_default_era(args.era)
    result = run_benchmark(
        benchmark,
        platform,
        repetitions=args.repetitions,
        seed=args.seed,
        memory_mb=args.memory_mb,
        workload=args.workload,
    )
    summary_row = result.summary.as_row() if result.summary else {}
    print(report.format_table([summary_row], f"{args.benchmark} on {args.platform}"))
    if result.open_loop is not None:
        print(report.format_table([result.open_loop.as_row()],
                                  f"open-loop workload: {result.config.workload_spec.canonical()}"))
    if result.cost is not None:
        print(report.format_table([result.cost.per_1000_executions.as_row()],
                                  "cost per 1000 executions [$]"))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result_to_dict(result), handle, indent=2)
        print(f"full result written to {args.output}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.scenarios:
        load_scenarios(args.scenarios)
    benchmark = get_benchmark(args.benchmark)
    results = compare_platforms(
        benchmark,
        platforms=args.platforms,
        repetitions=args.repetitions,
        era=args.era,
        seed=args.seed,
        workload=args.workload,
    )
    rows = []
    open_loop_rows = []
    for key, result in results.items():
        # Label each row with the comparison key (the full spec, era
        # included) -- two variants of one base platform must stay
        # distinguishable in the table.
        if result.summary:
            rows.append({**result.summary.as_row(), "platform": key})
        if result.open_loop:
            open_loop_rows.append({**result.open_loop.as_row(), "platform": key})
    print(report.format_table(rows, f"{args.benchmark}: platform comparison"))
    if open_loop_rows:
        print(report.format_table(open_loop_rows, "open-loop workload summaries"))
    medians = {platform: result.median_runtime for platform, result in results.items()}
    fastest = min(medians, key=medians.get)
    slowest = max(medians, key=medians.get)
    print(f"fastest: {fastest} ({medians[fastest]:.2f} s), "
          f"slowest: {slowest} ({medians[slowest]:.2f} s)")
    return 0


def _print_campaign_tables(campaign, output: Optional[str]) -> None:
    print(report.format_table(campaign.comparison_table(), "campaign: platform comparison"))
    print(report.format_table(campaign.cost_table(), "campaign: cost per 1000 executions [$]"))
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(campaign.to_dict(), handle, indent=2)
        print(f"aggregated campaign result written to {output}")


def _print_campaign_plan(
    spec: CampaignSpec,
    shard,
    cache_dir: Optional[str],
    title: str = "campaign plan (dry run)",
) -> int:
    """The --dry-run / --plan-only view: every cell, shard, and cache state."""
    jobs = spec.expand()
    rows: List[dict] = []
    hits = mine = 0
    for job in jobs:
        row = {
            "benchmark": job.benchmark,
            "platform": job.platform.canonical(),
            "memory_mb": job.memory_mb if job.memory_mb is not None else "default",
            "workload": job.workload.canonical(),
            "seed": job.seed_index,
            "fingerprint": job.fingerprint()[:12],
        }
        if shard is not None:
            index, count = shard
            job_shard = shard_of(job.fingerprint(), count)
            row["shard"] = job_shard
            row["assigned"] = "this worker" if job_shard == index else ""
            mine += job_shard == index
        if cache_dir:
            cached = probe_cache(cache_dir, job)
            row["cache"] = "hit" if cached else "miss"
            hits += cached
        rows.append(row)
    print(report.format_table(rows, title))
    summary = f"plan: {len(jobs)} cells"
    if shard is not None:
        summary += f", {mine} assigned to shard {shard[0]}/{shard[1]}"
    if cache_dir:
        summary += f", {hits} cached / {len(jobs) - hits} to compute"
    print(summary)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.scenarios:
        load_scenarios(args.scenarios)
    shard = parse_shard(args.shard) if args.shard else None

    run = None
    if args.resume:
        # The spec comes from the run directory; spec-shaping flags alongside
        # --resume would be silently ignored, so reject them loudly.  Every
        # such flag defaults to None in the parser exactly so an explicitly
        # passed value is detectable here.
        conflicting = [
            flag for flag, provided in (
                ("--benchmarks", args.benchmarks is not None),
                ("--platforms", args.platforms is not None),
                ("--eras", args.eras is not None),
                ("--memory-configs", args.memory_configs is not None),
                ("--seeds", args.seeds is not None),
                ("--burst-size", args.burst_size is not None),
                ("--repetitions", args.repetitions is not None),
                ("--mode", args.mode is not None),
                ("--base-seed", args.base_seed is not None),
                ("--workload", args.workloads is not None),
                ("--scenarios", args.scenarios is not None),
                ("--run-dir", args.run_dir is not None),
                ("--backend", args.backend is not None),
            ) if provided
        ]
        if conflicting:
            raise ValueError(
                f"--resume reads the campaign spec from the run directory; "
                f"{', '.join(conflicting)} cannot be combined with it (to "
                f"change the sweep, start a fresh run directory)"
            )
        run = GridRun.open(args.resume)
        spec = run.spec
    else:
        if not args.benchmarks:
            raise ValueError("--benchmarks is required (or pass --resume RUN_DIR)")
        # Entries may be plain names or parameterised benchmark spec strings
        # ("storage_io:num_functions=8"); validate the base names up front.
        unknown = []
        for name in args.benchmarks:
            try:
                parse_benchmark_spec(name)
            except KeyError:
                unknown.append(name)
        if unknown:
            raise ValueError(f"unknown benchmarks: {', '.join(unknown)}")
        legacy = [flag for flag, value in (
            ("--mode", args.mode), ("--burst-size", args.burst_size),
        ) if value is not None]
        if args.workloads and legacy:
            # The workload sweep replaces the legacy pair, which would be
            # silently ignored alongside it.
            raise ValueError(
                f"--workload cannot be combined with {' or '.join(legacy)}; "
                f"put them in the workload spec instead (e.g. warm:burst_size=10)"
            )
        spec = CampaignSpec(
            benchmarks=args.benchmarks,
            platforms=args.platforms if args.platforms is not None else ("gcp", "aws", "azure"),
            eras=args.eras if args.eras else (DEFAULT_ERA,),
            memory_configs=args.memory_configs if args.memory_configs else (None,),
            seeds=range(args.seeds if args.seeds is not None else 2),
            # The legacy pair is forwarded as-is (not compiled to workloads=)
            # so the spec document -- and therefore existing grid run-dir
            # manifests, which join on spec equality -- stays byte-identical.
            burst_size=args.burst_size if args.burst_size is not None else 30,  # lint: allow[R006]
            repetitions=args.repetitions if args.repetitions is not None else 1,
            mode=args.mode if args.mode is not None else "burst",  # lint: allow[R006]
            base_seed=args.base_seed if args.base_seed is not None else 0,
            workloads=args.workloads or (),
        )

    jobs = spec.expand()
    # Era-pinned platform specs sweep once instead of crossing the eras
    # dimension, so count the actual platform-era variants.
    platform_eras = sum(
        1 if platform.era is not None else len(spec.eras) for platform in spec.platforms
    )
    print(f"campaign: {len(jobs)} cells "
          f"({len(spec.benchmarks)} benchmarks x {platform_eras} platform-era variants x "
          f"{len(spec.memory_configs)} memory configs x "
          f"{len(spec.workloads)} workloads x {len(spec.seeds)} seeds)")

    if run is None and args.backend is not None and args.backend != "file":
        # Non-file backends carry the whole run -- leases, records, manifest
        # -- in their own medium; a --run-dir alongside would be dead weight
        # at best and a silently ignored second copy at worst.
        if args.run_dir:
            raise ValueError(
                f"--backend {args.backend} keeps run state in the backend "
                f"itself; --run-dir applies to the file backend only"
            )
        if not args.dry_run:
            run = GridRun.create(spec, backend=create_backend(args.backend),
                                 shard_count=shard[1] if shard else None)
    elif run is None and args.backend == "file" and not args.run_dir:
        raise ValueError("--backend file stores run state on disk; pass --run-dir")
    elif run is None and args.run_dir:
        if not args.dry_run:
            # No --shard joins an existing run at its own shard count (or
            # starts a fresh single-shard run).
            run = GridRun.create(spec, args.run_dir,
                                 shard_count=shard[1] if shard else None)
        elif (Path(args.run_dir) / GridRun.MANIFEST).exists():
            # A dry run must not create the directory, but an existing run
            # still validates the spec and the --shard argument against it.
            run = GridRun.create(spec, args.run_dir, shard_count=None)

    if run is not None and shard is not None and shard[1] != run.shard_count:
        raise ValueError(
            f"--shard {args.shard} does not match the run directory's "
            f"{run.shard_count} shard(s)"
        )

    if args.dry_run:
        return _print_campaign_plan(spec, shard, args.cache_dir)

    if run is None:
        if shard is not None:
            raise ValueError("--shard needs a shared run directory: pass --run-dir "
                             "(or --resume)")
        campaign = run_campaign(spec, workers=args.workers, cache_dir=args.cache_dir,
                                max_retries=args.max_retries)
        if args.cache_dir:
            print(f"cache: {campaign.cache_hits}/{len(jobs)} cells served from {args.cache_dir}")
        _print_campaign_tables(campaign, args.output)
        return 0

    # Grid path: this invocation is one worker over a shared run directory.
    worker_report = run_grid_worker(
        run,
        shard=shard[0] if shard else None,
        workers=args.workers,
        cache_dir=args.cache_dir,
        worker_id=args.worker_id,
        lease_ttl_s=args.lease_ttl,
        max_retries=args.max_retries,
    )
    print(worker_report.describe())
    for failure in worker_report.failures:
        print(f"failed: {failure.describe()}", file=sys.stderr)
    statuses = grid_status(run)
    print(report.format_table([s.as_row() for s in statuses],
                              f"grid run {run.run_dir}"))
    print(autoscale_hint(run, statuses).describe())
    outstanding = sum(s.pending + s.leased + s.failed for s in statuses)
    if outstanding == 0:
        print(f"run complete: {len(jobs)}/{len(jobs)} cells done")
        campaign = merge_run(run, cache_dir=args.cache_dir)
        _print_campaign_tables(campaign, args.output)
    else:
        print(f"run incomplete: {outstanding}/{len(jobs)} cells outstanding; "
              f"run more shards/workers, then `repro-flow campaign-merge {run.run_dir}`")
    # Permanently failed cells exit 3 exactly like the in-process path's
    # CampaignError, so wrappers can key on one code for "cells failed".
    return 3 if worker_report.failed else 0


def _cmd_campaign_status(run_dir: str, metrics: bool = False,
                         telemetry: Optional[str] = None) -> int:
    run = GridRun.open(run_dir)
    statuses = grid_status(run)
    print(report.format_table([s.as_row() for s in statuses],
                              f"grid run {run.run_dir} ({run.shard_count} shard(s))"))
    total = sum(s.total for s in statuses)
    done = sum(s.done for s in statuses)
    failed = sum(s.failed for s in statuses)
    leased = sum(s.leased for s in statuses)
    pending = sum(s.pending for s in statuses)
    print(f"cells: {done}/{total} done, {failed} failed, {leased} leased, "
          f"{pending} pending")
    print(autoscale_hint(run, statuses).describe())
    if metrics:
        # The exact registry `repro-flow serve` scrapes: merged per-worker
        # telemetry snapshots plus freshly computed whole-run gauges.
        view = aggregate_run_metrics(run_dir, telemetry=telemetry)
        print(f"telemetry: {view.writers} writer file(s) merged")
        throughput = cells_per_second(view.registry)
        if throughput is not None:
            print(f"cells/sec: {throughput:.3f}")
        else:
            print("cells/sec: n/a (no executed cells in telemetry)")
        rate = cache_hit_rate(view.registry)
        if rate is not None:
            fraction, hits, misses = rate
            print(f"cache hit rate: {fraction * 100:.1f}% "
                  f"({hits} hits, {misses} misses)")
        else:
            print("cache hit rate: n/a (no cache probes in telemetry)")
        print(f"queue depth: {leased}")
    if done == total:
        print("run complete")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    def ready(host: str, port: int) -> None:
        print(f"serving grid run {args.run_dir} on http://{host}:{port} "
              f"(/metrics, /status, /events; Ctrl-C to stop)", flush=True)

    serve_run(
        args.run_dir,
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        telemetry=args.telemetry,
        interval_s=args.interval,
        ready=ready,
    )
    return 0


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    run = GridRun.open(args.run_dir)
    campaign = merge_run(run, cache_dir=args.cache_dir, allow_partial=args.partial)
    total = len(run.spec.expand())
    print(f"merged {len(campaign.cells)}/{total} cells "
          f"({campaign.cache_hits} served from cache)")
    _print_campaign_tables(campaign, args.output)
    return 0


# ----------------------------------------------------------------- artifacts
def _artifact_selection(args: argparse.Namespace, render_all: bool) -> List[str]:
    if render_all or getattr(args, "all", False):
        return artifact_pipeline.available_artifacts()
    if not getattr(args, "artifacts", None):
        # The full paper campaign is deliberately opt-in: a bare `figures`
        # must not silently launch ~140 cells at burst 30.
        raise ValueError(
            "select artifacts with --artifacts NAME[,NAME...] or pass --all "
            "(see `repro-flow figures --list` for the registered names)"
        )
    names: List[str] = []
    for entry in args.artifacts:
        names.extend(part.strip() for part in entry.split(",") if part.strip())
    seen = set()
    unique = [name for name in names if not (name in seen or seen.add(name))]
    for name in unique:
        artifact_pipeline.get_artifact(name)  # KeyError lists the valid names
    return unique


def _artifact_config(args: argparse.Namespace) -> artifact_pipeline.ArtifactConfig:
    return artifact_pipeline.ArtifactConfig(
        burst_size=args.burst_size,
        seed=args.seed,
        quick=args.quick,
        benchmarks=tuple(args.benchmarks) if args.benchmarks else None,
        platforms=tuple(args.platforms) if args.platforms else artifact_pipeline.CLOUDS,
    )


def _print_artifact_plan(plan: artifact_pipeline.ArtifactPlan, shard,
                         cache_dir: Optional[str]) -> None:
    if plan.spec is not None:
        # plan.spec.expand() is exactly plan.jobs, so the campaign plan
        # printer (shard assignment, cache hit/miss) applies verbatim.
        _print_campaign_plan(plan.spec, shard, cache_dir,
                             title="artifact campaign plan")
    else:
        print("the selected artifacts are static: no campaign cells to run")
    print(plan.describe())


def _emit_artifacts(
    plan: artifact_pipeline.ArtifactPlan,
    campaign: Optional[CampaignResult],
    args: argparse.Namespace,
    prerendered: Optional[Dict[str, artifact_pipeline.RenderedArtifact]] = None,
) -> Dict[str, artifact_pipeline.RenderedArtifact]:
    # Watch mode hands over what it already rendered (and printed) per poll.
    rendered = (
        prerendered
        if prerendered is not None
        else artifact_pipeline.render_plan(plan, campaign)
    )
    if prerendered is None:
        for artifact in rendered.values():
            print(artifact.text)
            print()
    summary_rows = [
        {
            "artifact": artifact.name,
            "kind": artifact.kind,
            "cells": artifact.provenance.get("cell_count", 0),
            "cache_hits": artifact.provenance.get("cache_hits", 0),
            "status": "rendered" if artifact.complete else
                      f"pending ({len(artifact.missing)} cell(s) missing)",
        }
        for artifact in rendered.values()
    ]
    print(report.format_table(summary_rows, "artifacts"))
    if args.output:
        written = artifact_pipeline.write_artifacts(rendered, args.output)
        print(f"wrote {len(written)} artifact file(s) to {args.output}")
    if args.save_campaign and campaign is not None:
        with open(args.save_campaign, "w", encoding="utf-8") as handle:
            json.dump(campaign.to_dict(include_results=True), handle)
        print(f"full campaign result written to {args.save_campaign}")
    return rendered


def _watch_artifacts(
    plan: artifact_pipeline.ArtifactPlan,
    run: GridRun,
    args: argparse.Namespace,
    cache_dir: Optional[str],
) -> Tuple[Optional[CampaignResult],
           Dict[str, artifact_pipeline.RenderedArtifact], int]:
    """Re-render artifacts live off partial merges as grid workers stream.

    Completed artifacts are printed the moment their cells land and are not
    rebuilt on later polls.  The loop ends when every cell is either merged or
    permanently failed (so a run with dead cells does not spin forever), or
    after ``--watch-polls`` polls.  Returns the final snapshot, everything
    rendered, and the count of permanently failed cells.
    """
    rendered: Dict[str, artifact_pipeline.RenderedArtifact] = {}
    campaign: Optional[CampaignResult] = None
    failed = 0
    for campaign, done, failed, total in iter_partial_merges(
        run, cache_dir=cache_dir, interval_s=args.watch_interval,
        max_polls=args.watch_polls,
    ):
        for artifact in plan.artifacts:
            previous = rendered.get(artifact.name)
            if previous is not None and previous.complete:
                continue
            current = artifact_pipeline.render_artifact(artifact, campaign, plan.config)
            rendered[artifact.name] = current
            if current.complete:
                print(current.text)
                print()
        complete = sum(1 for artifact in rendered.values() if artifact.complete)
        line = (f"[watch] {done}/{total} cells merged, "
                f"{complete}/{len(rendered)} artifact(s) rendered, "
                f"{len(rendered) - complete} pending")
        if failed:
            line += f", {failed} cell(s) permanently failed"
        print(line, flush=True)
        if complete == len(rendered):
            break
    return campaign, rendered, failed


def _cmd_figures(args: argparse.Namespace, render_all: bool = False) -> int:
    if getattr(args, "list_artifacts", False):
        rows = [
            {
                "artifact": name,
                "kind": artifact_pipeline.get_artifact(name).kind,
                "description": artifact_pipeline.get_artifact(name).description,
            }
            for name in artifact_pipeline.available_artifacts()
        ]
        print(report.format_table(rows, "registered artifacts"))
        return 0

    names = _artifact_selection(args, render_all)
    config = _artifact_config(args)
    plan = artifact_pipeline.plan_artifacts(names, config)
    print(plan.describe())
    cache_dir = None if args.no_cache else args.cache_dir
    shard = parse_shard(args.shard) if args.shard else None
    if shard is not None and not args.run_dir:
        raise ValueError("--shard needs a shared run directory: pass --run-dir")
    if args.watch and not args.run_dir:
        raise ValueError("--watch follows a grid run: pass --run-dir")

    campaign: Optional[CampaignResult] = None
    prerendered: Optional[Dict[str, artifact_pipeline.RenderedArtifact]] = None
    failed_cells = 0
    if args.from_campaign:
        campaign = CampaignResult.from_dict(load_campaign_document(args.from_campaign))
    elif args.run_dir and plan.spec is not None:
        # GridRun.create validates --shard's count against an existing run
        # directory's manifest (a mismatch raises there).
        run = GridRun.create(plan.spec, args.run_dir,
                             shard_count=shard[1] if shard else None)
        if args.plan_only:
            _print_artifact_plan(plan, shard, cache_dir)
            return 0
        if args.watch:
            campaign, prerendered, failed_cells = _watch_artifacts(
                plan, run, args, cache_dir
            )
        elif args.render_only:
            campaign = merge_run(run, cache_dir=cache_dir, allow_partial=True)
        else:
            worker_report = run_grid_worker(
                run,
                shard=shard[0] if shard else None,
                workers=args.workers,
                cache_dir=cache_dir,
                worker_id=args.worker_id,
                lease_ttl_s=args.lease_ttl,
                max_retries=args.max_retries,
                # Cells blocking the most pending artifacts drain first, so
                # complete figures appear as early as possible.
                priority=artifact_pipeline.cell_priorities(plan),
            )
            print(worker_report.describe())
            for failure in worker_report.failures:
                print(f"failed: {failure.describe()}", file=sys.stderr)
            failed_cells = worker_report.failed
            campaign = merge_run(run, cache_dir=cache_dir, allow_partial=True)
    elif plan.spec is not None:
        if args.plan_only:
            _print_artifact_plan(plan, shard, cache_dir)
            return 0
        if args.render_only:
            # Simulation-free: whatever the warm cell cache already holds.
            if cache_dir:
                campaign = load_cached_campaign(plan.spec, cache_dir)
        else:
            campaign = artifact_pipeline.execute_plan(
                plan, workers=args.workers, cache_dir=cache_dir,
                max_retries=args.max_retries,
            )
            if cache_dir and campaign is not None:
                print(f"cache: {campaign.cache_hits}/{len(plan.jobs)} cells "
                      f"served from {cache_dir}")
    elif args.plan_only:
        _print_artifact_plan(plan, shard, cache_dir)
        return 0

    _emit_artifacts(plan, campaign, args, prerendered=prerendered)
    if failed_cells:
        # Same contract as the campaign grid path (and the in-process path's
        # CampaignError): permanently failed cells exit 3, so wrappers never
        # publish artifacts rendered from an incomplete run by accident.
        print(f"error: {failed_cells} campaign cell(s) failed permanently",
              file=sys.stderr)
        return 3
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    return _cmd_figures(args, render_all=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args.scenarios)
        if args.command == "stats":
            return _cmd_stats(args.benchmark)
        if args.command == "transcribe":
            return _cmd_transcribe(args.benchmark, args.platform, args.output)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "campaign":
            if args.telemetry:
                # Every metric written by this process (campaign counters,
                # engine monitor, backend ops, autoscale gauges) streams into
                # one per-pid JSONL file; a final snapshot lands on exit.
                with telemetry_session(args.telemetry, label="campaign"):
                    return _cmd_campaign(args)
            return _cmd_campaign(args)
        if args.command == "campaign-status":
            return _cmd_campaign_status(args.run_dir, metrics=args.metrics,
                                        telemetry=args.telemetry)
        if args.command == "campaign-merge":
            return _cmd_campaign_merge(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "lint":
            return lint_run_from_args(args)
        if args.command == "bench":
            return bench_run_from_args(args)
    except CampaignError as exc:
        # Name the failures, then surface the salvaged cells: without a
        # --cache-dir the partial result on the exception is the only copy
        # of the completed work, so print it and honour --output.  For the
        # figures/report commands --output is a *directory* of artifact
        # exports, not a campaign JSON path, so only campaign verbs write it.
        print(f"error: {exc}", file=sys.stderr)
        partial = exc.partial
        if partial is not None and partial.cells:
            print(f"salvaged {len(partial.cells)} completed cell(s) "
                  f"before the failure:")
            output = (getattr(args, "output", None)
                      if args.command not in ("figures", "report") else None)
            _print_campaign_tables(partial, output)
        return 3
    except (KeyError, ValueError, OSError, ImportError) as exc:
        # OSError covers unreadable --scenarios / --output / trace files and
        # missing grid run directories; ImportError covers TOML scenario
        # files on Python < 3.11.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1  # pragma: no cover - unreachable with required subparsers


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
