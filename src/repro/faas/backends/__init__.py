"""Pluggable grid coordination backends.

The :class:`~repro.faas.backends.base.GridBackend` protocol pins down what a
coordination medium must provide (TTL leases, append-only result streams, an
exclusively-created manifest); two implementations ship:

* :class:`~repro.faas.backends.file.FileBackend` -- the original shared
  run-directory semantics (local disk, NFS, synced volumes);
* :class:`~repro.faas.backends.memory.MemoryBackend` -- an in-process store
  for tests and single-host elastic workers.

The storage contract an S3/GCS backend would build on is written down in
:mod:`~repro.faas.backends.base`.  :func:`create_backend` maps the CLI's
``--backend`` strings onto instances.
"""

from __future__ import annotations

from typing import Optional

from .base import GridBackend
from .file import FileBackend
from .memory import MemoryBackend, memory_backend

__all__ = [
    "GridBackend",
    "FileBackend",
    "MemoryBackend",
    "create_backend",
    "memory_backend",
]


def create_backend(spec: str, run_dir: Optional[str] = None) -> GridBackend:
    """Resolve a ``--backend`` string into a :class:`GridBackend`.

    Accepted forms::

        file                       shared run directory (needs run_dir)
        memory                     process-shared in-memory store
        memory://NAME              a named in-memory store

    Real ``s3://`` / ``gs://`` URLs are recognised but rejected with
    guidance: the simulator bundles no cloud client.
    """
    if spec == "file":
        if run_dir is None:
            raise ValueError("the file backend stores run state on disk; pass --run-dir")
        return FileBackend(run_dir)
    if spec == "memory":
        return memory_backend()
    if spec.startswith("memory://"):
        name = spec[len("memory://"):] or "default"
        return memory_backend(name)
    if spec.startswith(("s3://", "gs://")):
        raise ValueError(
            f"{spec!r}: no object-store backend is bundled; share a run "
            f"directory (--backend file) instead, or implement GridBackend over "
            f"your client (see the storage contract in repro.faas.backends.base)"
        )
    raise ValueError(f"unknown backend {spec!r}; expected file or memory[://NAME]")
