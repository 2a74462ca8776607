"""Simulated multi-cloud substrate: engine, containers, storage, orchestration, platforms.

Re-exports nothing, but loads the submodules in the order its former re-exports
did: left empty, start-up and grid cell times measured 4-10% slower (CHANGES.md).
"""
from . import billing, container, engine, invocation, noise, platforms, resources, rng  # noqa: F401
