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

Parsing produces a canonical :class:`ScenarioConfig` (tuples of floats,
plain floats, ints) and every validation error names the offending
``[section] key``. :func:`emit_config` writes the canonical form back
out; ``parse_config(emit_config(cfg)) == cfg`` exactly, since floats are
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
from .poisson import Layout, ReducedPoint, point_like, reduced_point
from .systems import (HeavyTopParams, HeavyTopRotorParams,
                      RigidBodyRotorParams, heavy_top_free_system,
                      heavy_top_system, rigid_body_system)

GAMMA_KINDS = ("zero", "exact_dW", "constant_body", "explicit")
CONTROL_KINDS = ("none", "constant", "matching")
MATCHING_TARGETS = ("heavy_top_free", "rigid_body_rotors")
SECTION_BUILTINS = ("rotor_quadratic",)

# Ceiling on round(t_final / dt). A run keeps one float64 row of time,
# state and invariants per step, so 10^7 steps hold about 1.1 GB at
# state size d = 10 with m = 3 invariants.
MAX_STEPS = 10**7

# Ceiling on [gamma] samples. hj-check holds every sample, its fiber row
# and its probe columns at once and streams its report: its tracemalloc
# peak on the heavy-top probe grows about 200 B per sample (1000 to 3000
# samples; 189-224 B over 10 runs), so 10^6 peak near 0.2 GB.
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
    """A scenario file failed validation; the message names the field."""


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

def _parse_floats(raw: str, where: str) -> tuple:
    try:
        vals = tuple(float(tok) for tok in raw.split())
    except ValueError:
        raise ConfigError(f"{where}: could not read {raw!r} as numbers") \
            from None
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{where}: entries must be finite")
    return vals


def _vector(raw: str, n: int, where: str) -> tuple:
    vals = _parse_floats(raw, where)
    if len(vals) != n:
        raise ConfigError(f"{where}: expected {n} numbers, got {len(vals)}")
    return vals


def _scalar(raw: str, where: str) -> float:
    vals = _parse_floats(raw, where)
    if len(vals) != 1:
        raise ConfigError(f"{where}: expected a single number, "
                          f"got {len(vals)}")
    return vals[0]


def _integer(raw: str, where: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") \
            from None


def _take(sec: dict, name: str, key: str, required: bool = False):
    if key not in sec:
        if required:
            raise ConfigError(f"[{name}] {key}: missing required key")
        return None
    return sec.pop(key)


def _no_extras(sec: dict, name: str):
    if sec:
        key = sorted(sec)[0]
        raise ConfigError(f"[{name}] {key}: unknown key")


def _parse_system(data: dict) -> str:
    sec = data.get("system", {})
    kind = _take(sec, "system", "kind", required=True)
    if kind not in CATALOGUE:
        raise ConfigError(f"[system] kind: expected one of "
                          f"{', '.join(CATALOGUE)}, got {kind!r}")
    _no_extras(sec, "system")
    return kind


def _parse_params(sec: dict, name: str, system: str,
                  prefix: str = "") -> dict:
    """The params keys of ``system`` (each spelled ``prefix + key``),
    which must be all that is left in ``sec``, checked by its params
    class."""
    out = {}
    for key, n in CATALOGUE[system].keys.items():
        key = prefix + key
        raw = _take(sec, name, key, required=True)
        where = f"[{name}] {key}"
        out[key] = _scalar(raw, where) if n is None \
            else _vector(raw, n, where)
    _no_extras(sec, name)
    try:
        _params(system, out, prefix)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from None
    return out


def _parse_initial(data: dict, system: str) -> dict:
    sec = data.get("initial", {})
    k = rotor_count(system)
    out = {"pi": _vector(_take(sec, "initial", "pi", required=True), 3,
                         "[initial] pi")}
    if algebra_kind(system) == lie.SE3:
        out["gamma"] = _vector(_take(sec, "initial", "gamma", required=True),
                               3, "[initial] gamma")
    for key in ("theta", "l"):
        raw = _take(sec, "initial", key)
        out[key] = (0.0,) * k if raw is None \
            else _vector(raw, k, f"[initial] {key}")
    _no_extras(sec, "initial")
    return out


def _parse_run(data: dict) -> dict:
    sec = data.get("run") or {}
    raw_dt = _take(sec, "run", "dt")
    raw_tf = _take(sec, "run", "t_final")
    raw_seed = _take(sec, "run", "seed")
    dt = 1e-3 if raw_dt is None else _scalar(raw_dt, "[run] dt")
    t_final = 10.0 if raw_tf is None else _scalar(raw_tf, "[run] t_final")
    seed = 0 if raw_seed is None else _integer(raw_seed, "[run] seed")
    _no_extras(sec, "run")
    if dt <= 0:
        raise ConfigError("[run] dt: must be positive")
    if t_final <= 0:
        raise ConfigError("[run] t_final: must be positive")
    steps = t_final / dt
    if steps > MAX_STEPS + 0.5:  # round(steps) > MAX_STEPS, or inf
        raise ConfigError(f"[run] t_final / dt: {steps:.0f} steps exceed "
                          f"the limit of {MAX_STEPS}")
    n = round(steps)
    if n < 1 or abs(n * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ConfigError("[run] dt: must divide t_final into whole steps")
    if seed < 0:
        raise ConfigError("[run] seed: must be nonnegative")
    return {"dt": dt, "t_final": t_final, "seed": seed}


def _parse_gamma(data: dict, system: str) -> dict | None:
    sec = data.get("gamma")
    if sec is None:
        return None
    k = rotor_count(system)
    dim = lie.algebra_dim(algebra_kind(system))
    kind = _take(sec, "gamma", "kind", required=True)
    if kind not in GAMMA_KINDS:
        raise ConfigError(f"[gamma] kind: expected one of "
                          f"{', '.join(GAMMA_KINDS)}, got {kind!r}")
    out = {"kind": kind}
    if kind == "exact_dW":
        name = _take(sec, "gamma", "name", required=True)
        if name not in SECTION_BUILTINS:
            raise ConfigError(f"[gamma] name: unknown built-in section "
                              f"{name!r}")
        if k < 1:
            raise ConfigError("[gamma] name: rotor_quadratic needs at "
                              "least one rotor slot")
        out["name"] = name
    elif kind == "constant_body":
        out["nu0"] = _vector(_take(sec, "gamma", "nu0", required=True),
                             dim, "[gamma] nu0")
        raw_l0 = _take(sec, "gamma", "l0")
        out["l0"] = (0.0,) * k if raw_l0 is None \
            else _vector(raw_l0, k, "[gamma] l0")
    elif kind == "explicit":
        out["components"] = _vector(
            _take(sec, "gamma", "components", required=True), dim + k,
            "[gamma] components")
        raw_c = _take(sec, "gamma", "theta_coupling")
        out["theta_coupling"] = (0.0,) * (k * k) if raw_c is None \
            else _vector(raw_c, k * k, "[gamma] theta_coupling")
    raw_mu = _take(sec, "gamma", "mu")
    if raw_mu is None:
        if kind == "constant_body":
            out["mu"] = out["nu0"]
        elif kind == "explicit":
            out["mu"] = out["components"][:dim]
        else:
            out["mu"] = (0.0,) * dim
    else:
        out["mu"] = _vector(raw_mu, dim, "[gamma] mu")
    raw_n = _take(sec, "gamma", "samples")
    out["samples"] = 100 if raw_n is None \
        else _integer(raw_n, "[gamma] samples")
    _no_extras(sec, "gamma")
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
    sec = data.get("control") or {}
    raw_kind = _take(sec, "control", "kind")
    kind = "none" if raw_kind is None else raw_kind
    if kind not in CONTROL_KINDS:
        raise ConfigError(f"[control] kind: expected one of "
                          f"{', '.join(CONTROL_KINDS)}, got {kind!r}")
    out = {"kind": kind}
    if kind == "constant":
        sizes = {"d_pi": 3, "d_gamma": 3, "d_l": rotor_count(system)}
        if algebra_kind(system) == lie.SO3:
            del sizes["d_gamma"]
        for key, n in sizes.items():
            raw = _take(sec, "control", key)
            out[key] = (0.0,) * n if raw is None \
                else _vector(raw, n, f"[control] {key}")
    elif kind == "matching":
        target = _take(sec, "control", "target", required=True)
        if target not in MATCHING_TARGETS:
            raise ConfigError(f"[control] target: expected one of "
                              f"{', '.join(MATCHING_TARGETS)}, "
                              f"got {target!r}")
        if system != "rigid_body_rotors":
            raise ConfigError("[control] target: matching transport runs "
                              "the rigid_body_rotors system against the "
                              "target")
        if any(v != 0.0 for v in initial["theta"]):
            raise ConfigError("[initial] theta: matching transport tracks "
                              "the angle-free subsystem; omit theta or "
                              "set it to zeros")
        out["target"] = target
        out.update(_parse_params(sec, "control", target, "target_"))
    _no_extras(sec, "control")
    return out


def _parse_tolerances(data: dict) -> dict:
    sec = data.get("tolerances") or {}
    defaults = {"energy_drift": 1e-8, "casimir_drift": 1e-8,
                "equivalence": 1e-6}
    out = {}
    for key, default in defaults.items():
        raw = _take(sec, "tolerances", key)
        out[key] = default if raw is None \
            else _scalar(raw, f"[tolerances] {key}")
        if out[key] <= 0:
            raise ConfigError(f"[tolerances] {key}: must be positive")
    _no_extras(sec, "tolerances")
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
    system = _parse_system(data)
    params = _parse_params(data.get("params", {}), "params", system)
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
    """The matching control for the configured target, plus the target
    system and the point map from controlled points to target points.
    Flat (pi, l) is the flat target state, (pi, gamma) for the heavy
    top, so the control's three flat maps are the identity."""
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
    return control, sys_b, to_target


def _constant_control(cfg: ScenarioConfig):
    """The constant lift (d_pi [, d_gamma], 0 on the angles, d_l)."""
    head = list(cfg.control["d_pi"]) + list(cfg.control.get("d_gamma", ()))
    d_l = list(cfg.control["d_l"])

    def control(x: list) -> list:
        return head + [0.0] * (len(x) - len(head) - len(d_l)) + d_l

    return control


def build_system(cfg: ScenarioConfig) -> RCHSystem:
    """The declared system with the configured control installed."""
    sys = base_system(cfg)
    if cfg.control["kind"] == "constant":
        return replace(sys, control=_constant_control(cfg))
    if cfg.control["kind"] == "matching":
        return replace(sys, control=build_matching(cfg)[0])
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
        return random_configurations(rng, kind, n, k,
                                     lambda: rng.uniform(-1.0, 1.0, k))
    return isotropy_configurations(rng, mu, n, k)
