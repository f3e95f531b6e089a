"""Kernel selection: incremental EST/LST vs the full-recompute reference.

The greedy phase's EST/LST bookkeeping has two byte-identical
implementations: the incremental propagation used by default, and the full
two-sweep recompute kept as the executable specification.  Setting the
environment variable :data:`SCALAR_KERNELS_ENV` to a truthy value forces the
full recompute.  It affects nothing else: the local search has a single
kernel, checked against a test-only oracle.
"""

from __future__ import annotations

import os

__all__ = ["SCALAR_KERNELS_ENV", "scalar_kernels_enabled"]

#: Environment variable forcing the scalar reference kernels.
SCALAR_KERNELS_ENV = "REPRO_SCALAR_KERNELS"

_FALSY = frozenset({"", "0", "false", "no", "off"})


def scalar_kernels_enabled() -> bool:
    """Return whether the scalar reference kernels are forced via the environment."""
    return os.environ.get(SCALAR_KERNELS_ENV, "").strip().lower() not in _FALSY
