"""Performance harness for the repro platform (``repro-flow bench``).

Public surface:

* :data:`~.cells.PROFILES` / :class:`~.cells.BenchProfile` / the cell catalog
  (:mod:`.cells`) -- shared with ``benchmarks/conftest.py`` so the figure
  harness and the bench verb size cells from one table
* :func:`~.harness.run_bench` / :func:`~.harness.compare_documents` and the
  BENCH_*.json document model (:mod:`.harness`)
* :class:`~.cli.BenchConfig` / :func:`~.cli.main` -- the CLI (:mod:`.cli`)
"""

from .cells import (  # noqa: F401
    ALL_CELLS,
    BenchCell,
    BenchProfile,
    BenchSample,
    PROFILES,
    campaign_jobs,
    cells_by_name,
    schedule_arrivals,
)
from .cli import (  # noqa: F401
    BenchConfig,
    EXIT_REGRESSION,
    add_bench_arguments,
    main,
)
from .harness import (  # noqa: F401
    BENCH_SCHEMA,
    CellComparison,
    CellOutcome,
    baseline_block,
    build_document,
    compare_documents,
    load_document,
    machine_metadata,
    run_bench,
    run_cell,
)

__all__ = [
    "ALL_CELLS",
    "BENCH_SCHEMA",
    "BenchCell",
    "BenchConfig",
    "BenchProfile",
    "BenchSample",
    "CellComparison",
    "CellOutcome",
    "EXIT_REGRESSION",
    "PROFILES",
    "add_bench_arguments",
    "baseline_block",
    "build_document",
    "campaign_jobs",
    "cells_by_name",
    "compare_documents",
    "load_document",
    "machine_metadata",
    "main",
    "run_bench",
    "run_cell",
    "schedule_arrivals",
]
