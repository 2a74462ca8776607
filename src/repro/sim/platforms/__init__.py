"""Simulated platform profiles: AWS, Google Cloud, Azure, the HPC baseline,
and the :class:`PlatformSpec` machinery for composable platform variants."""

from .aws import aws_profile
from .azure import azure_profile
from .base import Platform, PlatformProfile
from .gcp import gcp_profile
from .hpc import hpc_profile
from .profiles import ALL_PLATFORMS, CLOUD_PLATFORMS, ERAS
from .spec import (
    DEFAULT_ERA,
    Override,
    PlatformSpec,
    available_eras,
    available_platforms,
    available_scenarios,
    load_scenarios,
    register_era,
    register_platform,
    register_scenario,
    resolve_platform,
)

__all__ = [
    "ALL_PLATFORMS",
    "CLOUD_PLATFORMS",
    "DEFAULT_ERA",
    "ERAS",
    "Override",
    "Platform",
    "PlatformProfile",
    "PlatformSpec",
    "available_eras",
    "available_platforms",
    "available_scenarios",
    "aws_profile",
    "azure_profile",
    "gcp_profile",
    "hpc_profile",
    "load_scenarios",
    "register_era",
    "register_platform",
    "register_scenario",
    "resolve_platform",
]
