#!/usr/bin/env python3
"""Distributed campaign: shard a sweep over "hosts" sharing one run directory.

The grid subsystem (``repro.faas.grid``) turns a campaign into a durable run
directory that any number of workers on any number of hosts can cooperate on.
This example plays both hosts from one script -- in real use each
``run_grid_worker`` call would be a separate machine pointing at a shared
filesystem (or a separate terminal; see README.md "Distributed campaigns"
for the CLI form with ``--run-dir``/``--shard``).

Run with:  python examples/distributed_campaign.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.analysis import report
from repro.faas.campaign import CampaignSpec, run_campaign
from repro.faas.grid import GridRun, grid_status, merge_run, plan_shards, run_grid_worker

# 1. Declare the sweep: 2 benchmarks x 2 platforms x 2 seeds = 8 cells.
spec = CampaignSpec(
    benchmarks=("function_chain", "mapreduce"),
    platforms=("aws", "azure"),
    seeds=(0, 1),
    burst_size=3,
)

# 2. The shard planner partitions cells by fingerprint: deterministic on
#    every host, no coordinator needed.
shards = plan_shards(spec, 2)
for index, shard in enumerate(shards):
    print(f"shard {index}: {len(shard)} cells")

with tempfile.TemporaryDirectory() as scratch:
    run_dir = Path(scratch) / "eval-run"

    # 3. Initialise the durable run directory (any later host with the same
    #    spec joins it instead).
    run = GridRun.create(spec, run_dir, shard_count=2)

    # 4. "Host A" executes shard 0; progress streams into the run directory
    #    as each cell finishes, so it is observable and crash-safe.
    report_a = run_grid_worker(run, shard=0, workers=2, worker_id="host-a")
    print(report_a.describe())

    # 5. Anyone can watch progress at any time (repro-flow campaign-status).
    print(report.format_table(
        [status.as_row() for status in grid_status(run)], "mid-run status"
    ))

    # ...and aggregate the partial result while host B is still working.
    partial = merge_run(run, allow_partial=True)
    print(f"partial merge: {len(partial.cells)} cells so far")

    # 6. "Host B" executes shard 1.  If a host had crashed mid-run, simply
    #    calling run_grid_worker(run) again -- or `repro-flow campaign
    #    --resume RUN_DIR` -- would finish the remainder: done cells are
    #    skipped and expired leases reclaimed.
    report_b = run_grid_worker(run, shard=1, workers=2, worker_id="host-b")
    print(report_b.describe())

    # 7. Merge the shard logs into the final campaign result.  The fold is
    #    idempotent and order-independent, and bit-identical to running the
    #    whole campaign in one process.
    campaign = merge_run(run)
    print(report.format_table(campaign.comparison_table(),
                              "campaign: platform comparison"))

    single = run_campaign(spec, workers=2)
    identical = json.dumps(campaign.to_dict(), sort_keys=True) == \
        json.dumps(single.to_dict(), sort_keys=True)
    print(f"merged grid result identical to single-process run: {identical}")
