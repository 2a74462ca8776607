"""Simulated multi-cloud substrate: engine, containers, storage, orchestration, platforms.

Re-exports nothing: import from the submodules.
"""
