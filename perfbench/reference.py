"""A fixed reference computation that times the machine, not the package.

On a shared machine the CPU's own speed drifts (by a third or more
within minutes, and the process's CPU time drifts with it), so a raw
command time measures the neighbours as much as the program. The
benchmark therefore runs this kernel beside every timed command and
reports command times in units of it. The kernel does the two kinds of
work the package's hot paths do, interpreter dispatch over frozen
dataclasses with 3-vector numpy calls (the integrator and field path)
and batched finite-difference stencils (the axiom suite), but it runs
none of the package's code, so a change to the package cannot move it.
"""

import time
from dataclasses import dataclass

import numpy as np

STEPS = 125
BATCHES = 150
INERTIA = np.array([1.0, 2.0, 3.0])


@dataclass(frozen=True)
class _State:
    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float))
        if not np.all(np.isfinite(self.pi)):
            raise ValueError("non-finite state")


def _field(s: _State) -> np.ndarray:
    return np.cross(s.pi, s.pi / INERTIA)


def measure() -> tuple:
    """Wall and CPU seconds of ``STEPS`` RK4 steps of a free rigid body
    plus ``BATCHES`` central-difference stencils of a quadratic form."""
    s = _State(np.array([1.0, 0.4, -0.7]))
    dt = 1e-3
    pts = np.repeat(np.linspace(-1.0, 1.0, 8)[None, :], 16, axis=0)
    form = np.outer(np.arange(1.0, 9.0), np.ones(8)) / 8.0
    idx = np.arange(8)
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(STEPS):
        x = s.pi
        k1 = _field(s)
        k2 = _field(_State(x + 0.5 * dt * k1))
        k3 = _field(_State(x + 0.5 * dt * k2))
        k4 = _field(_State(x + dt * k3))
        s = _State(x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    for _ in range(BATCHES):
        per = np.repeat(pts[:, None, :], 16, axis=1).reshape(-1, 8)
        per[idx, idx] += 1e-6
        vals = np.einsum("ni,ij,nj->n", per, form, per)
        pts = pts + 1e-9 * vals[:16, None]
    return time.perf_counter() - wall, time.process_time() - cpu
