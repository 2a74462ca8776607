"""Builtin platform registrations and measurement eras (RQ5: evolution).

The paper compares measurements from July 2022 and January 2024.  This module
registers both eras of the builtin platforms with the pluggable registry in
:mod:`.spec`; the 2022 era differs from 2024 in the parameters that visibly
changed between the two measurement campaigns (Figure 16):

* Azure's orchestration overhead for parallel phases roughly halved between
  2022 and 2024 (visible in the Machine Learning benchmark), so the 2022 era
  doubles the durable dispatch parameters;
* AWS and Google Cloud stayed essentially stable, so their 2022 profiles only
  differ in the deployment region (europe-west-1 for GCP in 2022) and a small
  cold-start regression.

Anything beyond the builtin grid -- hypothetical platforms, extrapolated
eras, scenario files -- goes through :class:`~.spec.PlatformSpec` and the
``register_platform`` / ``register_era`` / ``register_scenario`` hooks;
resolve a builtin profile with ``resolve_platform("aws@2022")``.
"""

from __future__ import annotations

from dataclasses import replace

from .aws import aws_profile
from .azure import azure_profile
from .base import PlatformProfile
from .gcp import gcp_profile
from .hpc import hpc_profile
from .spec import _finalize_builtins, register_era, register_platform

ERAS = ("2022", "2024")
CLOUD_PLATFORMS = ("aws", "gcp", "azure")
ALL_PLATFORMS = CLOUD_PLATFORMS + ("hpc",)


def _aws_2022() -> PlatformProfile:
    base = aws_profile(region="us-east-1")
    scaling = replace(base.scaling, cold_start_median_s=base.scaling.cold_start_median_s * 1.1)
    return base.with_overrides(scaling=scaling)


def _gcp_2022() -> PlatformProfile:
    base = gcp_profile(region="europe-west-1")
    scaling = replace(base.scaling, cold_start_median_s=base.scaling.cold_start_median_s * 1.15)
    return base.with_overrides(scaling=scaling)


def _azure_2022() -> PlatformProfile:
    base = azure_profile(region="europe-west")
    orchestration = replace(
        base.orchestration,
        dispatch_base_s=base.orchestration.dispatch_base_s * 2.0,
        dispatch_load_s_per_activity=base.orchestration.dispatch_load_s_per_activity * 2.0,
        completion_base_s=base.orchestration.completion_base_s * 2.0,
    )
    return base.with_overrides(orchestration=orchestration)


# Era order matters for display: the paper's chronology.
register_era("2022")
register_era("2024")

# The era-less registration is the default profile (the 2024 measurements);
# 2022 variants are era-specific factories on top.
register_platform("aws", aws_profile)
register_platform("gcp", gcp_profile)
register_platform("azure", azure_profile)
register_platform("hpc", hpc_profile)
register_platform("aws", _aws_2022, era="2022")
register_platform("gcp", _gcp_2022, era="2022")
register_platform("azure", _azure_2022, era="2022")

# Everything registered from here on (by library users at runtime) is
# process-local state that campaign cells must not assume in workers.
_finalize_builtins(ALL_PLATFORMS, ERAS)
