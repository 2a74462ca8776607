"""AST-based invariant linter for the repro platform (``repro-flow lint``).

Public surface:

* :func:`run_lint` / :class:`Finding` / :class:`Severity` / :class:`Rule` --
  the framework (:mod:`.framework`)
* :func:`default_rules` and the R001-R006 rule classes (:mod:`.rules`)
* :class:`LintConfig` / :func:`main` -- the CLI (:mod:`.cli`)
* the fingerprint manifest helpers (:mod:`.manifest`) and the baseline
  ratchet (:mod:`.baseline`)
"""

from .baseline import apply_baseline, load_baseline, write_baseline  # noqa: F401
from .cli import LintConfig, main  # noqa: F401
from .framework import (  # noqa: F401
    Finding,
    LintModule,
    Rule,
    Severity,
    run_lint,
    summarize,
)
from .manifest import generate_manifest, load_manifest, write_manifest  # noqa: F401
from .rules import (  # noqa: F401
    DeterminismRule,
    DeprecatedKwargRule,
    EventHandlerPurityRule,
    FingerprintDriftRule,
    FrozenSpecRule,
    MutableDefaultArgRule,
    WorkerPickleSafetyRule,
    default_rules,
)

__all__ = [
    "Finding",
    "LintConfig",
    "LintModule",
    "Rule",
    "Severity",
    "apply_baseline",
    "default_rules",
    "generate_manifest",
    "load_baseline",
    "load_manifest",
    "main",
    "run_lint",
    "summarize",
    "write_baseline",
    "write_manifest",
    "DeterminismRule",
    "DeprecatedKwargRule",
    "EventHandlerPurityRule",
    "FingerprintDriftRule",
    "FrozenSpecRule",
    "MutableDefaultArgRule",
    "WorkerPickleSafetyRule",
]
