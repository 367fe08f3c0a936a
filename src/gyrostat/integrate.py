"""Fixed-step time integration of reduced fields and drift diagnostics.

The single integrator is the classical fourth-order Runge-Kutta step on
one flat state, a list of d Python floats, with a field that maps such a
list to its d rates: at d = 6-11 each numpy call would cost more than
the arithmetic inside it, and fixed-size slots on the per-evaluation
path are list displays, as on Python 3.11 each comprehension costs a
frame. :func:`run` drives it over a uniform grid, writes each state into
an (n+1, d) float64 array and evaluates each invariant, a batched value
(n, d) -> (n,), once over those stored states; the relative drift series
(I(t) - I(0)) / max(1, |I(0)|) comes from those raw series. The
max(1, .) floor keeps it meaningful when an invariant starts near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import lie
from .poisson import (FlatField, Layout, ReducedPoint, ScalarField,
                      casimir_fields)

Invariant = Callable[[np.ndarray], np.ndarray]

BLOWUP_LIMIT = 1e12

# A grid t_i = i * dt built in float64 is uniform only to rounding: the
# ulp at t = 10 is already 1.78e-15, so uniformity is checked relative
# to the span of the grid.
UNIFORM_TOL = 1e-15


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled integration output: the (n+1, d) flat states in
    ``layout`` and the raw (n+1,) series of each tracked invariant."""

    times: np.ndarray
    states: np.ndarray
    series: Mapping[str, np.ndarray]
    layout: Layout

    def __post_init__(self):
        object.__setattr__(self, "times",
                           np.asarray(self.times, dtype=float))
        object.__setattr__(self, "states",
                           np.asarray(self.states, dtype=float))
        if self.times.ndim != 1 or self.times.size != len(self.states):
            raise ValueError("times and states must have equal length")
        if not np.isfinite(self.times).all():
            raise ValueError("trajectory times must be finite")
        kind, n_theta, n_l = self.layout
        if self.states.shape[1:] != (lie.algebra_dim(kind) + n_theta + n_l,):
            raise ValueError(f"states of shape {self.states.shape} do not "
                             f"match the layout {self.layout}")
        if self.times.size >= 2:
            steps = np.diff(self.times)
            dt = steps[0]
            tol = UNIFORM_TOL * max(1.0, float(np.abs(self.times).max()))
            if np.max(np.abs(steps - dt)) > tol:
                raise ValueError("trajectory times are not uniformly spaced")
        for name, values in self.series.items():
            if np.shape(values) != self.times.shape:
                raise ValueError(f"invariant series {name!r} has shape "
                                 f"{np.shape(values)}; its drift needs one "
                                 f"value per time, {self.times.shape}")

    @property
    def dt(self) -> float:
        if self.times.size < 2:
            raise ValueError("a single-sample trajectory has no step")
        return float(self.times[1] - self.times[0])

    @property
    def drift(self) -> dict:
        return {name: (s - s[0]) / max(1.0, abs(s[0]))
                for name, s in self.series.items()}

    def max_drift(self, name: str) -> float:
        return float(np.max(np.abs(self.drift[name])))


def _rate_count_error(k: list, n: int) -> ValueError:
    return ValueError(f"field returned {len(k)} rates for a state of "
                      f"{n} components")


def rk4_step(field: FlatField, x: list, dt: float) -> list:
    """One classical Runge-Kutta step of size dt (local error O(dt^5))
    of the list x; raises if the field returns a rate list of another
    length (checked at each stage, before its rates are used) or the
    step a non-finite state."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n, half = len(x), 0.5 * dt
    k1 = field(x)
    if len(k1) != n:
        raise _rate_count_error(k1, n)
    k2 = field([a + half * k for a, k in zip(x, k1)])
    if len(k2) != n:
        raise _rate_count_error(k2, n)
    k3 = field([a + half * k for a, k in zip(x, k2)])
    if len(k3) != n:
        raise _rate_count_error(k3, n)
    k4 = field([a + dt * k for a, k in zip(x, k3)])
    if len(k4) != n:
        raise _rate_count_error(k4, n)
    sixth = dt / 6.0
    y = [a + sixth * (p + 2.0 * q + 2.0 * r + s)
         for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, y)):
        raise ValueError("integration step produced a non-finite state")
    return y


def run(field: FlatField, p0: ReducedPoint, dt: float, t_final: float,
        invariants: Mapping[str, Invariant] | None = None) -> Trajectory:
    """Integrate p0 for t_final at fixed step dt and track invariants.

    ``field`` maps flat states in the layout of p0, lists of d floats, to
    their rates. dt must divide t_final to rounding. Raises if any state
    component exceeds ``BLOWUP_LIMIT`` in magnitude, reporting the
    failure time. Each state is written into the (n+1, d) array of
    stored states, and each invariant is called once, on that array.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not math.isfinite(t_final / dt):
        raise ValueError(f"t_final / dt = {t_final / dt} is not finite")
    n = int(round(t_final / dt))
    if n < 1 or abs(n * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError(f"dt {dt} does not divide t_final {t_final}")

    x = p0.flat().tolist()
    states = np.empty((n + 1, len(x)))
    states[0] = x
    for i in range(1, n + 1):
        x = rk4_step(field, x, dt)
        worst = max(map(abs, x))
        if worst > BLOWUP_LIMIT:
            raise ValueError(
                f"trajectory blew up at t = {i * dt:.6g}: "
                f"max |component| = {worst:.3e}")
        states[i] = x
    series = {name: fn(states) for name, fn in (invariants or {}).items()}
    return Trajectory(np.arange(n + 1) * dt, states, series, p0.layout)


def standard_invariants(h: ScalarField, kind: str) -> dict:
    """Energy plus every Casimir of the algebra, keyed by name, as their
    batched values; raises ValueError when h has no ``eval_batch``."""
    if h.eval_batch is None:
        raise ValueError("the energy invariant needs the Hamiltonian's "
                         "batched value (eval_batch)")
    return {"energy": h.eval_batch,
            **{name: c.eval_batch for name, c in casimir_fields(kind)}}
