"""Command-line front end: ``repro-flow bench`` / ``python -m repro.devtools.bench``.

Exit codes follow the repo's CLI conventions (0 ok, 2 usage error) plus a
dedicated **5** for "bench detected a performance regression" so CI can tell
a slow build from a crashed harness -- the same convention that gives the
linter its exit 4.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Sequence, Tuple

from .cells import ALL_CELLS, PROFILES
from .harness import (
    baseline_block,
    build_document,
    compare_documents,
    load_document,
    run_bench,
)

#: Exit code when --compare finds a cell beyond the regression threshold.
EXIT_REGRESSION = 5
EXIT_USAGE = 2

#: Default allowed slowdown before --compare fails (25%): wide enough for
#: shared-runner noise, narrow enough to catch a real order-of-magnitude
#: optimisation being accidentally reverted.
DEFAULT_THRESHOLD = 0.25

DEFAULT_BENCH_ID = 7


@dataclass(frozen=True)
class BenchConfig:
    """Fully-resolved invocation of the bench harness (CLI flags, made
    programmatic)."""

    profile: str = "quick"
    cells: Tuple[str, ...] = ()
    repetitions: Optional[int] = None
    output: Optional[Path] = None
    compare: Optional[Path] = None
    threshold: float = DEFAULT_THRESHOLD
    baseline_from: Optional[Path] = None
    baseline_note: str = ""
    bench_id: int = DEFAULT_BENCH_ID
    list_cells: bool = False


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the bench flags (shared by `repro-flow bench` and `-m` entry)."""
    profile = parser.add_mutually_exclusive_group()
    profile.add_argument("--profile", choices=sorted(PROFILES), default="quick",
                         help="cell sizing profile (default: quick)")
    profile.add_argument("--quick", dest="profile", action="store_const",
                         const="quick", help="shorthand for --profile quick")
    profile.add_argument("--full", dest="profile", action="store_const",
                         const="full", help="shorthand for --profile full")
    parser.add_argument("--cells", nargs="+", default=None, metavar="CELL",
                        help="run only these cells (see --list-cells)")
    parser.add_argument("--repetitions", type=int, default=None, metavar="N",
                        help="override the profile's timed repetitions")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the bench document (BENCH_<n>.json) here")
    parser.add_argument("--compare", default=None, metavar="FILE",
                        help="reference bench document; exit 5 if any cell "
                             "regresses beyond --threshold")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        metavar="FRACTION",
                        help="allowed throughput drop vs --compare before "
                             f"failing (default: {DEFAULT_THRESHOLD})")
    parser.add_argument("--baseline-from", default=None, metavar="FILE",
                        help="bench document whose medians are embedded as "
                             "this run's baseline block (the pre-optimisation "
                             "numbers a checked-in document cites)")
    parser.add_argument("--baseline-note", default="", metavar="TEXT",
                        help="what the embedded baseline was measured on")
    parser.add_argument("--bench-id", type=int, default=DEFAULT_BENCH_ID,
                        metavar="N", help="document id (BENCH_<n>.json)")
    parser.add_argument("--list-cells", action="store_true",
                        help="print the cell catalog and exit")


def config_from_args(args: argparse.Namespace) -> BenchConfig:
    return BenchConfig(
        profile=args.profile,
        cells=tuple(args.cells or ()),
        repetitions=args.repetitions,
        output=Path(args.output) if args.output else None,
        compare=Path(args.compare) if args.compare else None,
        threshold=args.threshold,
        baseline_from=Path(args.baseline_from) if args.baseline_from else None,
        baseline_note=args.baseline_note,
        bench_id=args.bench_id,
        list_cells=args.list_cells,
    )


def _print_cell_table(stream: IO[str]) -> None:
    for cell in ALL_CELLS:
        print(f"{cell.name}  [{cell.unit}]", file=stream)
        print(f"      {cell.description}", file=stream)


def run(config: BenchConfig, stdout: Optional[IO[str]] = None,
        stderr: Optional[IO[str]] = None) -> int:
    """Execute one bench invocation; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    if config.list_cells:
        _print_cell_table(out)
        return 0
    try:
        baseline = None
        if config.baseline_from is not None:
            note = config.baseline_note or (
                f"same cells measured from {config.baseline_from.name}")
            baseline = baseline_block(load_document(config.baseline_from), note)
        reference = (load_document(config.compare)
                     if config.compare is not None else None)
        outcomes = run_bench(
            config.profile, cell_names=config.cells or None,
            repetitions=config.repetitions,
            progress=lambda line: print(line, file=out),
        )
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    document = build_document(outcomes, config.profile, config.bench_id,
                              baseline=baseline)
    if config.output is not None:
        config.output.write_text(json.dumps(document, indent=2,
                                            sort_keys=True) + "\n")
        print(f"bench document written: {config.output}", file=out)
    if reference is not None:
        comparisons = compare_documents(document, reference, config.threshold)
        regressions = [entry for entry in comparisons if entry.regressed]
        for entry in comparisons:
            print(entry.format_line(), file=out)
        if regressions:
            print(f"{len(regressions)} cell(s) regressed beyond "
                  f"{config.threshold:.0%} of the reference", file=err)
            return EXIT_REGRESSION
        print("no regressions", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-flow bench",
        description="performance harness: engine events/sec, campaign "
                    "cells/sec, grid merge throughput",
    )
    add_bench_arguments(parser)
    return run(config_from_args(parser.parse_args(argv)))
