"""Scenario files for the command-line runner.

A scenario is an INI file with up to seven sections; section and key
names are part of the interface. Vectors are whitespace-separated
numbers; ``;`` and ``#`` open comments, inline ones included.

[system]    kind = rigid_body_rotors | heavy_top_rotors | heavy_top_free
[params]    rigid_body_rotors:  ibar (3), j (3)
            heavy_top_rotors:   ibar (3), j (2), m, g, h, chi (3)
            heavy_top_free:     i (3), m, g, h, chi (3)
[initial]   pi (3); gamma (3, the two heavy-top kinds only);
            theta, l (rotor slots, optional, default zeros)
[run]       dt (default 0.001), t_final (default 10.0), seed (default 0)
[gamma]     kind = zero | exact_dW | constant_body | explicit
            exact_dW:      name = rotor_quadratic
            constant_body: nu0 (3 or 6), l0 (rotor slots, optional)
            explicit:      components (body covector then rotor
                           momenta); theta_coupling (k*k numbers,
                           row-major, optional) makes the rotor momenta
                           affine in the angles, l = l0 + C theta, which
                           is closed exactly when C is symmetric
            mu (3 or 6, optional): the declared momentum level,
            defaulting to the section's body components at the identity;
            declaring a different level makes the membership check fail
            samples (default 100, at most 10^6); the whole section is
            optional and only the residual-check command requires it
[control]   kind = none | constant | matching (default none)
            constant: d_pi (3), d_gamma (3, heavy-top kinds), d_l
                      (rotor slots), each optional, default zeros
            matching: target = heavy_top_free | rigid_body_rotors plus
                      the target kind's [params] keys, each prefixed
                      target_ (target_i, ..., or target_ibar, target_j)
[tolerances] energy_drift (1e-8), casimir_drift (1e-8),
             equivalence (1e-6), all strictly positive

Each section's keys, their sizes and defaults are declared once, in the
spec table its parser hands to the one key reader, :func:`_read`:
``_RUN`` and ``_TOLERANCES``, and the tables the other parsers build
from the system's rotor slots and algebra (``[params]`` and the matching
``target_`` keys from :data:`CATALOGUE`). A parser adds only the rules
that tie keys together. Parsing produces a canonical
:class:`ScenarioConfig` (tuples of floats, plain floats, ints) and every
validation error names the offending ``[section] key``.
:func:`emit_config` writes the canonical form back out;
``parse_config(emit_config(cfg)) == cfg`` exactly, since floats are
printed with shortest round-trip precision.

:data:`CATALOGUE` is the one place a system kind is declared: its row
gives the algebra kind, the rotor-slot count, the ``[params]`` keys with
their sizes, the params class and the system builder. Parsing, the
matching target (the same keys with a ``target_`` prefix), the builders
and emission all read it.

The matching control runs the rigid body with rotors as the controlled
side and identifies its angle-free (pi, l) subsystem with the target's
(pi, gamma) reduced space, so a matching scenario must keep ``theta``
at zero. The builders at the bottom turn a validated config into the
package's parameter sets, systems, initial points, one-form sections
and sample batches.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import lie
from .controlled import RCHSystem, matching_control
from .hamilton_jacobi import (ConfigurationStack, affine_rotor_section,
                              constant_body_section, isotropy_configurations,
                              isotropy_sampleable, random_configurations,
                              rotor_quadratic_section, zero_section)
from .integrate import step_count
from .poisson import Layout, ReducedPoint, point_like, reduced_point
from .systems import (HeavyTopParams, HeavyTopRotorParams,
                      RigidBodyRotorParams, heavy_top_free_system,
                      heavy_top_system, rigid_body_system)

GAMMA_KINDS = ("zero", "exact_dW", "constant_body", "explicit")
CONTROL_KINDS = ("none", "constant", "matching")
MATCHING_TARGETS = ("heavy_top_free", "rigid_body_rotors")
SECTION_BUILTINS = ("rotor_quadratic",)

# Ceiling on round(t_final / dt). A run keeps one float64 row of state and
# invariants per step; the tracemalloc peak grows 96-109 B per step for
# simulate, 215-265 B for equivalence-demo: 1.0-1.1 and 2.1-2.7 GB at 10^7.
MAX_STEPS = 10**7

# Ceiling on [gamma] samples. hj-check holds every sample, its fiber row
# and its probe columns at once and streams its report: past the fixed
# 0.6 MB of its lie.CHUNK blocks, its heavy-top tracemalloc peak grows
# about 200 B per sample (3000 to 30000), so 10^6 peak near 0.2 GB.
MAX_SAMPLES = 10**6

_SECTIONS = ("system", "params", "initial", "run", "gamma", "control",
             "tolerances")


class SystemKind(NamedTuple):
    """One system kind: its algebra kind (lie.SO3 or lie.SE3), its rotor
    slots, its [params] keys in the params class's positional order, each
    mapped to its vector size (None for a scalar), the params class, and
    the builder from params to the RCHSystem."""

    algebra: str
    rotors: int
    keys: dict
    params: type
    build: Callable


CATALOGUE = {
    "rigid_body_rotors": SystemKind(
        lie.SO3, 3, {"ibar": 3, "j": 3}, RigidBodyRotorParams,
        rigid_body_system),
    "heavy_top_rotors": SystemKind(
        lie.SE3, 2, {"ibar": 3, "j": 2, "m": None, "g": None, "h": None,
                     "chi": 3}, HeavyTopRotorParams, heavy_top_system),
    "heavy_top_free": SystemKind(
        lie.SE3, 0, {"i": 3, "m": None, "g": None, "h": None, "chi": 3},
        HeavyTopParams, heavy_top_free_system),
}


class ConfigError(ValueError):
    """A scenario file or option is invalid; the message names the field."""


def algebra_kind(system: str) -> str:
    return CATALOGUE[system].algebra


def rotor_count(system: str) -> int:
    return CATALOGUE[system].rotors


@dataclass(frozen=True)
class ScenarioConfig:
    """Canonical form of a parsed scenario file."""

    system: str
    params: dict
    initial: dict
    run: dict
    gamma: dict | None
    control: dict
    tolerances: dict


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

REQUIRED = object()  # the spec default of a key that must be given


def _zeros(n: int) -> tuple:
    """The spec entry of an optional n-number key that defaults to zeros."""
    return n, (0.0,) * n


def _read(sec: dict, name: str, spec: dict) -> dict:
    """Pop the keys of ``spec`` from the ``[name]`` section ``sec`` in spec
    order and return their values; a key left over is unknown. ``spec``
    maps a key to (how, default): how is str, int, float (one number) or
    n (n numbers), default the value of an omitted key or REQUIRED."""
    out = {}
    for key, (how, default) in spec.items():
        where = f"[{name}] {key}"
        raw = sec.pop(key, None)
        if raw is None:
            if default is REQUIRED:
                raise ConfigError(f"{where}: missing required key")
            out[key] = default
        elif how is str:
            out[key] = raw
        elif how is int:
            try:
                out[key] = int(raw)
            except ValueError:
                raise ConfigError(f"{where}: expected an integer, "
                                  f"got {raw!r}") from None
        else:
            try:
                vals = tuple(float(tok) for tok in raw.split())
            except ValueError:
                raise ConfigError(f"{where}: could not read {raw!r} as "
                                  "numbers") from None
            if not all(math.isfinite(v) for v in vals):
                raise ConfigError(f"{where}: entries must be finite")
            if len(vals) != (1 if how is float else how):
                want = "a single number" if how is float \
                    else f"{how} numbers"
                raise ConfigError(f"{where}: expected {want}, "
                                  f"got {len(vals)}")
            out[key] = vals[0] if how is float else vals
    if sec:
        raise ConfigError(f"[{name}] {sorted(sec)[0]}: unknown key")
    return out


def _one_of(value, choices, where: str):
    """Raise unless value is one of choices; None, an omitted key, is left
    for :func:`_read` to report."""
    if value is not None and value not in choices:
        raise ConfigError(f"{where}: expected one of {', '.join(choices)}, "
                          f"got {value!r}")


_RUN = {"dt": (float, 1e-3), "t_final": (float, 10.0), "seed": (int, 0)}
_TOLERANCES = {"energy_drift": (float, 1e-8), "casimir_drift": (float, 1e-8),
               "equivalence": (float, 1e-6)}


def _params_spec(system: str, prefix: str = "") -> dict:
    """The [params] keys of ``system``, each spelled ``prefix + key``."""
    return {prefix + key: (float if n is None else n, REQUIRED)
            for key, n in CATALOGUE[system].keys.items()}


def _check_params(name: str, system: str, values: dict, prefix: str = ""):
    try:
        _params(system, values, prefix)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


def _parse_initial(data: dict, system: str) -> dict:
    k = rotor_count(system)
    spec = {"pi": (3, REQUIRED)}
    if algebra_kind(system) == lie.SE3:
        spec["gamma"] = (3, REQUIRED)
    spec.update(theta=_zeros(k), l=_zeros(k))
    return _read(data.get("initial", {}), "initial", spec)


def _parse_run(data: dict) -> dict:
    out = _read(data.get("run", {}), "run", _RUN)
    dt, t_final, seed = out.values()
    if dt <= 0:
        raise ConfigError("[run] dt: must be positive")
    if t_final <= 0:
        raise ConfigError("[run] t_final: must be positive")
    steps = t_final / dt
    if steps > MAX_STEPS + 0.5:  # round(steps) > MAX_STEPS, or inf
        raise ConfigError(f"[run] t_final / dt: {steps:.0f} steps exceed "
                          f"the limit of {MAX_STEPS}")
    if step_count(dt, t_final) < 1:
        raise ConfigError("[run] dt: must divide t_final into whole steps")
    if seed < 0:
        raise ConfigError("[run] seed: must be nonnegative")
    return out


def _parse_gamma(data: dict, system: str) -> dict | None:
    sec = data.get("gamma")
    if sec is None:
        return None
    k = rotor_count(system)
    dim = lie.algebra_dim(algebra_kind(system))
    kind = sec.get("kind")
    _one_of(kind, GAMMA_KINDS, "[gamma] kind")
    by_kind = {
        "exact_dW": {"name": (str, REQUIRED)},
        "constant_body": {"nu0": (dim, REQUIRED), "l0": _zeros(k)},
        "explicit": {"components": (dim + k, REQUIRED),
                     "theta_coupling": _zeros(k * k)},
    }
    out = _read(sec, "gamma", {"kind": (str, REQUIRED),
                               **by_kind.get(kind, {}), "mu": (dim, None),
                               "samples": (int, 100)})
    if kind == "exact_dW":
        if out["name"] not in SECTION_BUILTINS:
            raise ConfigError(f"[gamma] name: unknown built-in section "
                              f"{out['name']!r}")
        if k < 1:
            raise ConfigError("[gamma] name: rotor_quadratic needs at "
                              "least one rotor slot")
    if out["mu"] is None:  # the section's body components at the identity
        out["mu"] = out.get("nu0", out.get("components", (0.0,) * dim)[:dim])
    if out["samples"] < 1:
        raise ConfigError("[gamma] samples: must be at least 1")
    if out["samples"] > MAX_SAMPLES:
        raise ConfigError(f"[gamma] samples: {out['samples']} exceed the "
                          f"limit of {MAX_SAMPLES}")
    mu = np.array(out["mu"])
    if np.linalg.norm(mu) > 0 and not isotropy_sampleable(mu):
        raise ConfigError(
            "[gamma] mu: sampling on a nonzero momentum level needs "
            "pi parallel to gamma (or pi = 0) with gamma nonzero")
    return out


def _parse_control(data: dict, system: str, initial: dict) -> dict:
    sec = data.get("control", {})
    kind = sec.get("kind", "none")
    _one_of(kind, CONTROL_KINDS, "[control] kind")
    spec = {"kind": (str, "none")}
    if kind == "constant":
        spec["d_pi"] = _zeros(3)
        if algebra_kind(system) == lie.SE3:
            spec["d_gamma"] = _zeros(3)
        spec["d_l"] = _zeros(rotor_count(system))
    elif kind == "matching":
        target = sec.get("target")
        _one_of(target, MATCHING_TARGETS, "[control] target")
        spec["target"] = (str, REQUIRED)
        if target is not None:
            spec.update(_params_spec(target, "target_"))
    out = _read(sec, "control", spec)
    if kind == "matching":
        if system != "rigid_body_rotors":
            raise ConfigError("[control] target: matching transport runs "
                              "the rigid_body_rotors system against the "
                              "target")
        if any(v != 0.0 for v in initial["theta"]):
            raise ConfigError("[initial] theta: matching transport tracks "
                              "the angle-free subsystem; omit theta or "
                              "set it to zeros")
        _check_params("control", out["target"], out, "target_")
    return out


def _parse_tolerances(data: dict) -> dict:
    out = _read(data.get("tolerances", {}), "tolerances", _TOLERANCES)
    for key, value in out.items():
        if value <= 0:
            raise ConfigError(f"[tolerances] {key}: must be positive")
    return out


def parse_config(text: str) -> ScenarioConfig:
    # no section header can be empty, so [DEFAULT] is read as an ordinary
    # (unknown) section instead of leaking its keys into every section
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";", "#"),
                                   default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from None
    data = {name: dict(cp[name]) for name in cp.sections()}
    for name in data:
        if name not in _SECTIONS:
            raise ConfigError(f"[{name}]: unknown section")
    system = _read(data.get("system", {}), "system",
                   {"kind": (str, REQUIRED)})["kind"]
    _one_of(system, CATALOGUE, "[system] kind")
    params = _read(data.get("params", {}), "params", _params_spec(system))
    _check_params("params", system, params)
    initial = _parse_initial(data, system)
    run = _parse_run(data)
    gamma = _parse_gamma(data, system)
    control = _parse_control(data, system, initial)
    tolerances = _parse_tolerances(data)
    return ScenarioConfig(system, params, initial, run, gamma, control,
                          tolerances)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: "
                          f"{exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scenario file {path} is not UTF-8: "
                          f"{exc.reason} at byte {exc.start}") from None
    return parse_config(text)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, tuple):
        return " ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(cfg: ScenarioConfig) -> str:
    """Write the canonical text form; parse_config inverts it exactly.
    Each section's keys come out in the order parse_config stored them."""
    lines = []
    for name in _SECTIONS:
        sec = {"kind": cfg.system} if name == "system" else getattr(cfg, name)
        if sec is None:
            continue
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {_fmt(value)}" for key, value in sec.items())
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _params(system: str, values: dict, prefix: str = ""):
    """The params class of ``system`` built from ``values``, whose keys
    carry ``prefix``."""
    row = CATALOGUE[system]
    return row.params(*(values[prefix + key] for key in row.keys))


def build_params(cfg: ScenarioConfig):
    return _params(cfg.system, cfg.params)


def base_system(cfg: ScenarioConfig) -> RCHSystem:
    """The declared system without any configured control attached."""
    return CATALOGUE[cfg.system].build(build_params(cfg))


def _identity(x):
    return x


def build_matching(cfg: ScenarioConfig):
    """The base system (no control attached), the matching control for
    the configured target, the target system and the point map from
    controlled points to target points. Flat (pi, l) is the flat target
    state, (pi, gamma) for the heavy top, so the control's three flat
    maps are the identity."""
    if cfg.control["kind"] != "matching":
        raise ConfigError("[control] kind: this command needs "
                          "kind = matching")
    sys_a = base_system(cfg)
    layout_a = Layout(lie.SO3, 0, sys_a.rotor_count)
    name = cfg.control["target"]
    target = CATALOGUE[name]
    sys_b = target.build(_params(name, cfg.control, "target_"))
    layout_b = Layout(target.algebra, 0, target.rotors)
    if layout_b == layout_a:
        to_target = _identity
    else:
        def to_target(p):
            return point_like(layout_b, p.flat())
    control = matching_control(sys_a, sys_b, layout_a, layout_b, _identity,
                               _identity, _identity)
    return sys_a, control, sys_b, to_target


def _constant_control(cfg: ScenarioConfig):
    """The constant lift (d_pi [, d_gamma], 0 on the angles, d_l)."""
    head = list(cfg.control["d_pi"]) + list(cfg.control.get("d_gamma", ()))
    d_l = list(cfg.control["d_l"])

    def control(x: list) -> list:
        return head + [0.0] * (len(x) - len(head) - len(d_l)) + d_l

    return control


def build_system(cfg: ScenarioConfig) -> RCHSystem:
    """The declared system with the configured control installed."""
    if cfg.control["kind"] == "matching":
        sys, control = build_matching(cfg)[:2]
        return replace(sys, control=control)
    sys = base_system(cfg)
    if cfg.control["kind"] == "constant":
        return replace(sys, control=_constant_control(cfg))
    return sys


def build_initial(cfg: ScenarioConfig) -> ReducedPoint:
    """The configured start point; matching scenarios drop the angle
    slot, since the transport identifies angle-free subsystems."""
    init = cfg.initial
    if cfg.control["kind"] == "matching":
        return reduced_point(lie.SO3, init["pi"], None, (), init["l"])
    return reduced_point(algebra_kind(cfg.system), init["pi"],
                         init.get("gamma"), init["theta"], init["l"])


def build_section(cfg: ScenarioConfig):
    """The configured one-form section and its declared momentum level."""
    if cfg.gamma is None:
        raise ConfigError("[gamma] kind: missing required key")
    kind = algebra_kind(cfg.system)
    k = rotor_count(cfg.system)
    dim = lie.algebra_dim(kind)
    block = cfg.gamma
    if block["kind"] == "zero":
        section = zero_section(kind, k)
    elif block["kind"] == "exact_dW":
        offset = np.zeros(k)
        offset[0] = 3.0
        section = rotor_quadratic_section(kind, offset)
    elif block["kind"] == "constant_body":
        section = constant_body_section(np.array(block["nu0"]),
                                        np.array(block["l0"]))
    else:
        comps = np.array(block["components"])
        nu0 = comps[:dim]
        coupling = np.array(block["theta_coupling"]).reshape(k, k)
        if np.any(coupling != 0.0):
            section = affine_rotor_section(nu0, comps[dim:], coupling)
        else:
            section = constant_body_section(nu0, comps[dim:])
    return section, np.array(block["mu"])


def sample_configurations(cfg: ScenarioConfig, mu,
                          rng: np.random.Generator) -> ConfigurationStack:
    """Stacked sample batch for residual checks: global over the
    configuration space on the zero level, with angles uniform in
    [-1, 1), and the momentum's isotropy subgroup otherwise, so constant
    sections sit exactly on their level set."""
    if cfg.gamma is None:
        raise ConfigError("[gamma] kind: missing required key")
    n = cfg.gamma["samples"]
    k = rotor_count(cfg.system)
    kind = algebra_kind(cfg.system)
    if float(np.linalg.norm(mu)) == 0.0:
        return random_configurations(rng, kind,
                                     rng.uniform(-1.0, 1.0, (n, k)))
    return isotropy_configurations(rng, mu, n, k)
