"""Paper-evaluation benchmark of the SeBS-Flow reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_cold --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each measured round runs in a fresh interpreter (``perfbench/round.py``), so
set-up time, import time and peak memory are per round and never hidden by
warm module or memo caches.  The run repeats rounds for ``--seconds`` and
reports medians.  End-to-end times are in reference-host seconds: every
round probes the host's speed around its work and converts its timings by
it, so a busy neighbour on a shared machine does not move them (see
``round.HostSpeed``).  ``--trace 1`` instead runs one untraced and one traced
round and reports the per-layer breakdown, as measured.  The last line of
standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the metrics, workloads and their rationale.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from round import nearest_rank

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUND = HERE / "round.py"
PINS = HERE / "pins.json"

WORKLOADS = ("paper_cold", "paper_warm", "grid_sweep")
#: Every run measures at least this many rounds, however short --seconds is.
MIN_ROUNDS = 3
#: Extra set-up-only interpreters per run, so ``setup_s`` is a median of
#: enough samples even when a workload round takes seconds.
SETUP_SAMPLES = 6
#: Whole-run budget; one run must end within 180 s.
BUDGET_S = 170.0
#: Everything the untraced table prints, as BENCHMARK.json declares it.
SERIES_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cell_p50_ms": "ms",
    "cell_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def declared_metrics():
    """(end-to-end, per-layer) name -> unit maps, as BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return tuple(
        {metric["name"]: metric["unit"] for metric in declared[kind]}
        for kind in ("end_to_end", "per_layer")
    )


class RoundFailed(RuntimeError):
    """A round process exited abnormally; the run has no valid result."""


class Runner:
    """Starts round processes inside one work directory and keeps the clock."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = perf_counter()
        self.env = dict(os.environ)
        # Cached bytecode, as an installed package has it: otherwise every
        # round recompiles the package and set-up measures the compiler.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )

    def spawn(self, mode, label, cache=None, extra=()):
        work = self.work / label
        command = [
            sys.executable, str(ROUND), "--workload", self.workload,
            "--seed", str(self.seed), "--mode", mode, "--work", str(work),
            *extra,
        ]
        if cache is not None:
            command += ["--cache", str(cache)]
        timeout = max(1.0, BUDGET_S - (perf_counter() - self.started))
        command += ["--spawned-at", repr(time.time())]
        # subprocess.run waits for the child and kills it on timeout.
        completed = subprocess.run(
            command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
        shutil.rmtree(work, ignore_errors=True)
        if completed.returncode != 0:
            raise RoundFailed(
                f"{mode} round of {self.workload} exited {completed.returncode}:\n"
                + completed.stderr[-2000:]
            )
        return json.loads(completed.stdout.strip().splitlines()[-1])


def load_pins():
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def expected_digest(workload, seed, fill):
    """The digest every round must reproduce, or None (first round decides)."""
    family = "grid_sweep" if workload == "grid_sweep" else "paper"
    pinned = load_pins()[family].get(str(seed))
    if pinned is not None:
        return pinned
    return fill["digest"] if fill is not None else None


def set_up(runner, samples=0):
    """Untimed set-up, then ``samples`` measured set-up-only interpreters.

    The first interpreter compiles bytecode and warms the page cache (for
    ``paper_warm`` it also fills the cell cache), so it is not a sample.
    Returns the shared cache, the fill record, and the set-up times.
    """
    cache = fill = None
    if runner.workload == "paper_warm":
        cache = runner.work / "cache"
        fill = runner.spawn("fill", "fill", cache=cache)
    else:
        runner.spawn("setup", "setup")
    setups = [runner.spawn("setup", "setup") for _ in range(samples)]
    return cache, fill, setups


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(runner, seconds):
    """Repeat fresh-interpreter rounds for ``seconds``; end-to-end medians."""
    cache, fill, setups = set_up(runner, SETUP_SAMPLES)
    expected = expected_digest(runner.workload, runner.seed, fill)
    failed = fill["failed"] if fill is not None else 0
    if fill is not None and expected is not None and fill["digest"] != expected:
        failed += 1  # the cold fill itself rendered wrong data
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(runner.spawn("round", f"round-{len(rounds)}", cache=cache))
        elapsed = perf_counter() - start
        # Start another round only if it should end within half a round
        # of the deadline.
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) / 2 > seconds:
            break
    if expected is None:
        expected = rounds[0]["digest"]
    failed += sum(r["failed"] + (r["digest"] != expected) for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    # Times are in reference-host seconds: each round converts them by the
    # host speed it probed around them (round.HostSpeed).
    series = {
        "wall_s": [r["wall_s"] for r in rounds],
        "setup_s": [r["setup_s"] for r in setups + rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
    }
    # Each cell's time is its median over the rounds; the percentiles are
    # over cells, so a cell that ran slow in one round does not move them.
    cell_ms = [
        1e3 * statistics.median(r["cell_s"][fingerprint] for r in rounds)
        for fingerprint in rounds[0]["cell_s"]
    ]
    percentiles = {
        "cell_p50_ms": nearest_rank(cell_ms, 50),
        "cell_p90_ms": nearest_rank(cell_ms, 90),
    }
    print(f"{runner.workload}: {len(rounds)} round(s) in {elapsed:.1f} s, "
          f"{attempted} cell(s) attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f})")
    print(f"  {'metric':<14}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}")
    for name, values in series.items():
        q1, q3 = quartiles(values)
        print(f"  {name:<14}{SERIES_UNITS[name]:<6}{statistics.median(values):>12.4f}"
              f"{q1:>12.4f}{q3:>12.4f}{len(values):>4}")
    for name, value in percentiles.items():
        print(f"  {name:<14}{SERIES_UNITS[name]:<6}{value:>12.4f}"
              f"{'':>24}{len(cell_ms):>4} cells")
    print(f"  measured wall_s median {statistics.median(r['raw_wall_s'] for r in rounds):.4f} s; "
          f"host speed median {statistics.median(r['speed'] for r in rounds):.3f} "
          f"(1 = reference host)")
    child_rss = max(r["child_peak_rss_mb"] for r in rounds)
    if child_rss:
        print(f"  largest pool worker peak RSS: {child_rss:.1f} MiB")
    values = {name: statistics.median(v) for name, v in series.items()}
    values.update(percentiles)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in declared_metrics()[0].items()
    }
    return rounds[0]["context"], attempted, failed, metrics


def trace(runner):
    """One untraced and one traced round: every per-layer metric, plus checks.

    Both rounds start in fresh interpreters, so the traced one's extra time
    over the untraced one is the tracing overhead, not a memo-cache effect.
    """
    units = declared_metrics()[1]
    cache, fill, _ = set_up(runner)
    expected = expected_digest(runner.workload, runner.seed, fill)
    reference = runner.work / "reference.json"
    untraced = runner.spawn("round", "untraced", cache=cache,
                            extra=("--digests", str(reference)))
    record = runner.spawn("trace", "traced", cache=cache,
                          extra=("--reference", str(reference)))
    if expected is None:
        expected = untraced["digest"]
    failed = untraced["failed"] + record["failed"] + (fill["failed"] if fill else 0)
    failed += (untraced["digest"] != expected) + (record["digest"] != expected)
    layers = record["layers"]
    layers["trace.overhead_frac"] = record["wall_s"] / untraced["wall_s"] - 1.0
    print(f"{runner.workload} (traced): {record['attempted']} cell(s), "
          f"{failed} failed; untraced wall {untraced['wall_s']:.4f} s, "
          f"traced wall {record['wall_s']:.4f} s (reference host); measured "
          f"{untraced['raw_wall_s']:.4f} s and {record['raw_wall_s']:.4f} s")
    # A layer the workload never enters reads 0 (no grid calls in paper_*).
    metrics = {
        name: {"value": layers.get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }
    for name, metric in metrics.items():
        print(f"  {name:<36}{metric['unit']:<6}{metric['value']:>16.6f}")
    return record["context"], record["attempted"], failed, metrics


def run_workload(workload, args):
    work = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, args.seed, work)
        if args.trace:
            context, attempted, failed, metrics = trace(runner)
        else:
            context, attempted, failed, metrics = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("context " + json.dumps({"workload": workload, **context}, sort_keys=True))
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            results = {name: run_workload(name, args) for name in WORKLOADS}
            attempted = sum(result[0] for result in results.values())
            failed = sum(result[1] for result in results.values())
            metrics = {name: result[2] for name, result in results.items()}
        else:
            attempted, failed, metrics = run_workload(args.workload, args)
    except (RoundFailed, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
