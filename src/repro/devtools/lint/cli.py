"""Command-line front end: ``repro-flow lint`` / ``python -m repro.devtools.lint``.

Exit codes follow the repo's CLI conventions (0 ok, 2 usage error) plus a
dedicated **4** for "lint found violations" so CI and scripts can tell a
failing lint from a crashed one.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Optional, Sequence, Tuple

from . import manifest as manifest_mod
from .baseline import DEFAULT_BASELINE_PATH, apply_baseline, load_baseline, write_baseline
from .framework import Finding, run_lint, summarize
from .rules import default_rules

#: Exit code when findings remain after baseline/pragma suppression.
EXIT_FINDINGS = 4
EXIT_USAGE = 2

#: Repository root inferred from the installed package layout (src/repro ->
#: repo).  Used as the default path root so finding paths -- and therefore
#: baseline keys -- are stable no matter where the linter is invoked from.
DEFAULT_ROOT = manifest_mod.DEFAULT_PACKAGE_ROOT.parents[1]


@dataclass(frozen=True)
class LintConfig:
    """Fully-resolved invocation of the linter (CLI flags, made programmatic)."""

    paths: Tuple[Path, ...] = (manifest_mod.DEFAULT_PACKAGE_ROOT,)
    root: Path = DEFAULT_ROOT
    format: str = "text"
    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    baseline_path: Path = field(default=DEFAULT_BASELINE_PATH)
    manifest_path: Path = field(default=manifest_mod.DEFAULT_MANIFEST_PATH)
    no_baseline: bool = False
    update_baseline: bool = False
    update_manifest: bool = False
    list_rules: bool = False


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags (shared by `repro-flow lint` and `-m` entry)."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: the repro package source)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="findings output format (default: text)")
    parser.add_argument("--select", nargs="+", default=None, metavar="RULE",
                        help="run only these rule ids (e.g. R001 R003)")
    parser.add_argument("--ignore", nargs="+", default=None, metavar="RULE",
                        help="skip these rule ids")
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="directory finding paths are reported relative to "
                             "(default: the repository root)")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help=f"baseline file (default: {DEFAULT_BASELINE_PATH})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report every finding, ignoring the baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="accept the current findings as the new baseline "
                             "and exit 0")
    parser.add_argument("--manifest", default=None, metavar="FILE",
                        help="fingerprint manifest consulted by R002 "
                             f"(default: {manifest_mod.DEFAULT_MANIFEST_PATH})")
    parser.add_argument("--update-manifest", action="store_true",
                        help="regenerate the fingerprint manifest from the "
                             "current source before linting (the sanctioned "
                             "follow-up to a CACHE_VERSION bump)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")


def config_from_args(args: argparse.Namespace) -> LintConfig:
    root = Path(args.root) if args.root else DEFAULT_ROOT
    paths = tuple(Path(p) for p in args.paths) or (manifest_mod.DEFAULT_PACKAGE_ROOT,)
    return LintConfig(
        paths=paths,
        root=root,
        format=args.format,
        select=tuple(args.select or ()),
        ignore=tuple(args.ignore or ()),
        baseline_path=Path(args.baseline) if args.baseline else DEFAULT_BASELINE_PATH,
        manifest_path=(Path(args.manifest) if args.manifest
                       else manifest_mod.DEFAULT_MANIFEST_PATH),
        no_baseline=args.no_baseline,
        update_baseline=args.update_baseline,
        update_manifest=args.update_manifest,
        list_rules=args.list_rules,
    )


def _print_rule_table(rules, stream: IO[str]) -> None:
    for rule in rules:
        print(f"{rule.rule_id}  {rule.name}", file=stream)
        print(f"      {rule.description}", file=stream)


def _emit_text(failing: Sequence[Finding], suppressed: int,
               stale: Sequence[str], stream: IO[str]) -> None:
    for finding in failing:
        print(finding.format_text(), file=stream)
    counts = ", ".join(f"{rule_id}: {count}" for rule_id, count in summarize(failing))
    summary = f"{len(failing)} finding(s)"
    if counts:
        summary += f" ({counts})"
    if suppressed:
        summary += f"; {suppressed} suppressed by baseline"
    print(summary, file=stream)
    for key in stale:
        print(f"stale baseline entry (violation fixed -- ratchet it out): {key}",
              file=stream)


def _emit_json(failing: Sequence[Finding], suppressed: int,
               stale: Sequence[str], stream: IO[str]) -> None:
    document = {
        "findings": [finding.as_dict() for finding in failing],
        "counts": dict(summarize(failing)),
        "total": len(failing),
        "suppressed_by_baseline": suppressed,
        "stale_baseline_keys": list(stale),
    }
    print(json.dumps(document, indent=2, sort_keys=True), file=stream)


def run(config: LintConfig, stdout: Optional[IO[str]] = None,
        stderr: Optional[IO[str]] = None) -> int:
    """Execute one lint invocation; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    rules = default_rules(manifest_path=config.manifest_path)
    if config.list_rules:
        _print_rule_table(rules, out)
        return 0
    if config.update_manifest:
        written = manifest_mod.write_manifest(config.manifest_path)
        print(f"fingerprint manifest updated: {written}", file=out)
    try:
        findings = run_lint(
            config.paths, rules, root=config.root,
            select=config.select or None, ignore=config.ignore or None,
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    if config.update_baseline:
        written = write_baseline(findings, config.baseline_path)
        print(f"baseline updated with {len(findings)} finding(s): {written}",
              file=out)
        return 0
    baseline = {} if config.no_baseline else load_baseline(config.baseline_path)
    failing, suppressed, stale = apply_baseline(findings, baseline)
    if config.format == "json":
        _emit_json(failing, suppressed, stale, out)
    else:
        _emit_text(failing, suppressed, stale, out)
    return EXIT_FINDINGS if failing else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-flow lint",
        description="AST-based invariant linter for the repro platform "
                    "(determinism, fingerprint stability, worker-safety)",
    )
    add_lint_arguments(parser)
    return run(config_from_args(parser.parse_args(argv)))
