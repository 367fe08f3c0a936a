"""Fixed-step time integration of reduced fields and drift diagnostics.

The single integrator is the classical fourth-order Runge-Kutta step on
one flat state, a list of d Python floats, with a field that maps such a
list to its d rates: at d = 6-11 each numpy call would cost more than
the arithmetic inside it, and fixed-size slots on the per-evaluation
path are list displays, as on Python 3.11 each comprehension costs a
frame. So the step's stage sums are list displays too, in a kernel
generated once per state length from that integer alone; it keeps the
arithmetic and evaluation order of the comprehensions over zip it
replaces, so every state is bitwise the same as theirs (Hairer, Norsett
and Wanner, Solving ODEs I, sec. II.1, give the method). :func:`run`
drives the step over the grid t_i = i * dt, which a
:class:`Trajectory` keeps as its step dt, writes each state into an
(n+1, d) float64 array and evaluates each invariant, a batched value
(n, d) -> (n,), once over those stored states; the relative drift series
(I(t) - I(0)) / max(1, |I(0)|) comes from those raw series. The
max(1, .) floor keeps it meaningful when an invariant starts near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from typing import Callable, Mapping

import numpy as np

from . import lie
from .poisson import (FlatField, Layout, ReducedPoint, ScalarField,
                      casimir_fields)

Invariant = Callable[[np.ndarray], np.ndarray]

BLOWUP_LIMIT = 1e12

# the rk4_step kernel of each state length, generated on first use
_STEPS: dict = {}


@dataclass(frozen=True)
class Trajectory:
    """Integration output on the grid t_i = i * dt: the (n+1, d) flat
    states in ``layout`` and the raw (n+1,) series of each invariant."""

    dt: float
    states: np.ndarray
    series: Mapping[str, np.ndarray]
    layout: Layout

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "states",
                           np.asarray(self.states, dtype=float))
        kind, n_theta, n_l = self.layout
        if self.states.shape[1:] != (lie.algebra_dim(kind) + n_theta + n_l,):
            raise ValueError(f"states of shape {self.states.shape} do not "
                             f"match the layout {self.layout}")
        for name, values in self.series.items():
            if np.shape(values) != (len(self.states),):
                raise ValueError(f"invariant series {name!r} has shape "
                                 f"{np.shape(values)}; its drift needs one "
                                 f"value per state, ({len(self.states)},)")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.states)) * self.dt

    def max_drift(self, name: str) -> float:
        return float(np.max(np.abs(_relative_drift(self.series[name]))))


def _relative_drift(s: np.ndarray) -> np.ndarray:
    return (s - s[0]) / max(1.0, abs(s[0]))


def _rate_count_error(k: list, n: int) -> ValueError:
    return ValueError(f"field returned {len(k)} rates for a state of "
                      f"{n} components")


def _generated_step(n: int):
    """The stages of :func:`rk4_step` for states of n components, as a
    function generated from the integer n alone, so no outside text
    reaches ``exec``. It unpacks x and each stage's rates into locals,
    the rates once their count is checked, and builds each stage state
    and the final state as a list display: the terms of a comprehension
    over zip, in its order, without its frame. A bracketed target
    unpacks n = 0 too."""
    def display(term: str) -> str:
        return "[" + ", ".join(term.format(i=i) for i in range(n)) + "]"

    body = [display("x{i}") + " = x", "half, sixth = 0.5 * dt, dt / 6.0",
            "k = field(x)"]
    for rates, use in (
            ("p{i}", "k = field(" + display("x{i} + half * p{i}") + ")"),
            ("q{i}", "k = field(" + display("x{i} + half * q{i}") + ")"),
            ("r{i}", "k = field(" + display("x{i} + dt * r{i}") + ")"),
            ("s{i}", "return " + display(
                "x{i} + sixth * (p{i} + 2.0 * q{i} + 2.0 * r{i} + s{i})"))):
        body += [f"if len(k) != {n}: raise _rate_count_error(k, {n})",
                 display(rates) + " = k", use]
    namespace = {"_rate_count_error": _rate_count_error}
    exec("def step(field, x, dt):\n    " + "\n    ".join(body), namespace)
    return namespace["step"]


def rk4_step(field: FlatField, x: list, dt: float) -> list:
    """One classical Runge-Kutta step of size dt (local error O(dt^5))
    of the list x. Its stages run in the kernel generated once per state
    length from that integer alone and kept in ``_STEPS``: list displays
    with the arithmetic and order of comprehensions over zip, so each
    state is bitwise theirs. Raises if the field returns a rate list of
    another length (checked at each stage, before its rates are used)
    or the step a non-finite state, checked as isfinite(sum(y)) or
    all(map(isfinite, y)): the sum alone when it is finite, the exact
    per-entry test when an overflowing sum leaves it open."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = len(x)
    step = _STEPS.get(n) or _STEPS.setdefault(n, _generated_step(n))
    y = step(field, x, dt)
    if not (isfinite(sum(y)) or all(map(isfinite, y))):
        raise ValueError("integration step produced a non-finite state")
    return y


def step_count(dt: float, t_final: float) -> int:
    """round(t_final / dt) when dt divides t_final to rounding, else 0."""
    n = round(t_final / dt)
    return n if abs(n * dt - t_final) <= 1e-9 * max(1.0, abs(t_final)) else 0


def run(field: FlatField, p0: ReducedPoint, dt: float, t_final: float,
        invariants: Mapping[str, Invariant] | None = None) -> Trajectory:
    """Integrate p0 for t_final at fixed step dt and track invariants.

    ``field`` maps flat states in the layout of p0, lists of d floats, to
    their rates. dt must divide t_final into whole steps. Raises if any
    state component exceeds ``BLOWUP_LIMIT`` in magnitude, reporting the
    failure time. Each state is written into the (n+1, d) array of
    stored states, and each invariant is called once, on that array.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not math.isfinite(t_final / dt):
        raise ValueError(f"t_final / dt = {t_final / dt} is not finite")
    n = step_count(dt, t_final)
    if n < 1:
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
    return Trajectory(dt, states, series, p0.layout)


def standard_invariants(h: ScalarField, kind: str) -> dict:
    """Energy plus every Casimir of the algebra, keyed by name, as their
    batched values."""
    return {"energy": h.eval_batch,
            **{name: c.eval_batch for name, c in casimir_fields(kind)}}
