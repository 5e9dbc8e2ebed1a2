"""Parallel experiment execution (`repro.exec`).

Every figure sweep and chaos soak is a grid of *independent, seeded*
simulations — the embarrassingly-parallel shape the paper itself
exploits with per-flow hardware contexts (§4).  This package fans those
grid points out over forked worker processes while keeping the
repository's determinism contract intact: each point is a pure function
of its (serializable) parameters, results are merged keyed and ordered
by point, and a parallel run is byte-identical to a serial one.
``REPRO_EXEC_WORKERS=1`` (the default) forces the plain in-process
path; ``python -m repro.exec`` runs ad-hoc sweeps from the command
line.  See docs/performance.md and DESIGN.md §10 for the worker/seed
model.
"""

from repro.exec.engine import (
    GridError,
    PointFailure,
    default_workers,
    point_seed,
    run_grid,
    run_grid_dict,
    shutdown_pool,
)

__all__ = [
    "GridError",
    "PointFailure",
    "default_workers",
    "point_seed",
    "run_grid",
    "run_grid_dict",
    "shutdown_pool",
]
