"""Scenario file parsing, emission, and the config-to-object builders."""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gyrostat import config as cfgmod
from gyrostat import lie
from gyrostat.config import ConfigError, emit_config, parse_config
from gyrostat.hamilton_jacobi import closedness_defect
from gyrostat.systems import (HeavyTopParams, HeavyTopRotorParams,
                              RigidBodyRotorParams)
from test_controlled import field_at

RB = """\
[system]
kind = rigid_body_rotors

[params]
ibar = 1.0 2.0 3.0
j = 0.5 0.4 0.3

[initial]
pi = 1.0 0.5 -0.2
l = 0.1 0.2 0.3
"""

HT = """\
[system]
kind = heavy_top_rotors

[params]
ibar = 2.0 1.5 1.0
j = 0.4 0.3
m = 1.2
g = 9.8
h = 0.5
chi = 0.5773502691896258 0.5773502691896258 0.5773502691896258

[initial]
pi = 0.1 0.2 0.3
gamma = 0.0 0.0 1.0
"""

HTF = """\
[system]
kind = heavy_top_free

[params]
i = 2.0 1.5 1.0
m = 1.2
g = 9.8
h = 0.5
chi = 0.0 0.0 1.0

[initial]
pi = 0.1 0.2 0.3
gamma = 0.0 0.0 1.0
"""

DEMO = RB.replace("pi = 1.0 0.5 -0.2", "pi = 0.3 -0.2 0.5") + """
[run]
dt = 0.001
t_final = 1.0

[control]
kind = matching
target = heavy_top_free
target_i = 2.0 1.5 1.0
target_m = 1.2
target_g = 9.8
target_h = 0.5
target_chi = 0.0 0.0 1.0
"""

IDENT = RB + """
[control]
kind = matching
target = rigid_body_rotors
target_ibar = 1.0 2.0 3.0
target_j = 0.5 0.4 0.3
"""


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(RB)
        assert cfg.system == "rigid_body_rotors"
        assert cfg.params["ibar"] == (1.0, 2.0, 3.0)
        assert cfg.params["j"] == (0.5, 0.4, 0.3)
        assert cfg.initial["pi"] == (1.0, 0.5, -0.2)
        assert cfg.initial["theta"] == (0.0, 0.0, 0.0)
        assert cfg.initial["l"] == (0.1, 0.2, 0.3)
        assert "gamma" not in cfg.initial
        assert cfg.run == {"dt": 1e-3, "t_final": 10.0, "seed": 0}
        assert cfg.gamma is None
        assert cfg.control == {"kind": "none"}
        assert cfg.tolerances == {"energy_drift": 1e-8,
                                  "casimir_drift": 1e-8,
                                  "equivalence": 1e-6}

    def test_heavy_top_keeps_advected_slot(self):
        cfg = parse_config(HT)
        assert cfg.initial["gamma"] == (0.0, 0.0, 1.0)
        assert cfg.initial["theta"] == (0.0, 0.0)

    def test_rotor_free_top_has_empty_rotor_slots(self):
        cfg = parse_config(HTF)
        assert cfg.initial["theta"] == ()
        assert cfg.initial["l"] == ()

    @pytest.mark.parametrize("mutate, field", [
        (lambda t: t.replace("kind = rigid_body_rotors", "kind = rover"),
         r"\[system\] kind"),
        (lambda t: t.replace("j = 0.5 0.4 0.3\n", ""), r"\[params\] j"),
        (lambda t: t.replace("pi = 1.0 0.5 -0.2", "pi = 1.0 0.5"),
         r"\[initial\] pi"),
        (lambda t: t.replace("pi = 1.0 0.5 -0.2", "pi = 1.0 0.5 spin"),
         r"\[initial\] pi"),
        (lambda t: t + "\n[orbit]\nradius = 2.0\n", r"\[orbit\]"),
        (lambda t: t + "\n[run]\ndt = -0.1\n", r"\[run\] dt"),
        (lambda t: t + "\n[run]\ndt = 0.3\n", r"\[run\] dt"),
        (lambda t: t + "\n[run]\nseed = 1.5\n", r"\[run\] seed"),
        (lambda t: t + "\n[run]\nt_final = -1.0\n",
         r"^\[run\] t_final: must be positive$"),
        (lambda t: t + "\n[run]\nseed = -1\n",
         r"^\[run\] seed: must be nonnegative$"),
        (lambda t: t + "\n[tolerances]\nenergy_drift = 0.0\n",
         r"\[tolerances\] energy_drift"),
        (lambda t: t.replace("l = 0.1 0.2 0.3", "l = 0.1 0.2 0.3\nspin = 1"),
         r"\[initial\] spin"),
        (lambda t: "[DEFAULT]\nseed = 3\n" + t,
         r"^\[DEFAULT\]: unknown section$"),
    ])
    def test_errors_name_the_field(self, mutate, field):
        with pytest.raises(ConfigError, match=field):
            parse_config(mutate(RB))

    def test_step_ceiling_bounds_the_run(self):
        # 10^12 steps are refused before anything is allocated; the
        # ceiling itself is accepted
        with pytest.raises(ConfigError, match=r"\[run\]"):
            parse_config(RB + "\n[run]\ndt = 10.0\nt_final = 1e13\n")
        cfg = parse_config(RB + f"\n[run]\ndt = 1e-6\nt_final = "
                                f"{cfgmod.MAX_STEPS * 1e-6!r}\n")
        assert round(cfg.run["t_final"] / cfg.run["dt"]) == cfgmod.MAX_STEPS

    def test_overflowing_step_count_is_a_config_error(self):
        # t_final / dt overflows to inf, which round() cannot take
        with pytest.raises(ConfigError, match=r"\[run\] t_final / dt: inf"):
            parse_config(RB + "\n[run]\ndt = 1e-300\nt_final = 1e300\n")

    def test_sample_ceiling_bounds_the_probe(self):
        # 10^12 samples are refused before any configuration is drawn;
        # the ceiling itself is accepted
        gamma = "\n[gamma]\nkind = zero\nsamples = {}\n"
        with pytest.raises(ConfigError, match=r"\[gamma\] samples"):
            parse_config(RB + gamma.format(10**12))
        cfg = parse_config(RB + gamma.format(cfgmod.MAX_SAMPLES))
        assert cfg.gamma["samples"] == cfgmod.MAX_SAMPLES

    def test_rigid_body_rejects_advected_slot(self):
        text = RB.replace("l = 0.1 0.2 0.3",
                          "l = 0.1 0.2 0.3\ngamma = 0.0 0.0 1.0")
        with pytest.raises(ConfigError, match=r"\[initial\] gamma"):
            parse_config(text)

    def test_non_unit_chi_is_reported_under_params(self):
        bad = HT.replace("chi = 0.5773502691896258 0.5773502691896258 "
                         "0.5773502691896258", "chi = 1.0 1.0 0.0")
        with pytest.raises(ConfigError, match=r"\[params\].*unit"):
            parse_config(bad)

    def test_gamma_kinds_validate(self):
        with pytest.raises(ConfigError, match=r"\[gamma\] kind"):
            parse_config(RB + "\n[gamma]\nkind = spiral\n")
        with pytest.raises(ConfigError, match=r"\[gamma\] name"):
            parse_config(RB + "\n[gamma]\nkind = exact_dW\nname = cubic\n")
        with pytest.raises(ConfigError, match=r"\[gamma\] samples"):
            parse_config(RB + "\n[gamma]\nkind = zero\nsamples = 0\n")
        with pytest.raises(ConfigError, match=r"\[gamma\] nu0"):
            parse_config(RB + "\n[gamma]\nkind = constant_body\n"
                              "nu0 = 1.0 0.0\n")
        with pytest.raises(ConfigError, match=r"\[gamma\] theta_coupling"):
            parse_config(RB + "\n[gamma]\nkind = explicit\n"
                              "components = 0. 0. 0. 1. 0. 0.\n"
                              "theta_coupling = 1.0 0.0\n")

    def test_rotor_free_top_cannot_use_the_rotor_generator(self):
        with pytest.raises(ConfigError, match=r"\[gamma\] name"):
            parse_config(HTF + "\n[gamma]\nkind = exact_dW\n"
                               "name = rotor_quadratic\n")

    def test_skew_momentum_level_cannot_be_sampled(self):
        with pytest.raises(ConfigError, match=r"\[gamma\] mu"):
            parse_config(HT + "\n[gamma]\nkind = constant_body\n"
                              "nu0 = 1.0 0.0 0.0 0.0 1.0 0.0\n")

    # The zero level is sampled globally; a nonzero one needs the
    # isotropy rule of hamilton_jacobi.isotropy_sampleable. The last two
    # sit at its tolerance 1e-12 * max(1, |gamma|) from both sides:
    # |pi x gamma| is 3.6e-12 and 4.4e-12 against 4e-12.
    @pytest.mark.parametrize("mu, accepted", [
        ("0.0 0.0 0.0 0.0 0.0 0.0", True),
        ("0.0 0.0 0.0 0.0 0.0 2.0", True),
        ("0.0 0.0 3.0 0.0 0.0 2.0", True),
        ("0.0 1e-13 3.0 0.0 0.0 2.0", True),
        ("0.0 1e-11 3.0 0.0 0.0 2.0", False),
        ("0.0 0.0 3.0 0.0 0.0 0.0", False),
        ("0.0 0.9e-12 3.0 0.0 0.0 4.0", True),
        ("0.0 1.1e-12 3.0 0.0 0.0 4.0", False),
    ])
    def test_momentum_level_follows_the_isotropy_rule(self, mu, accepted):
        text = (HT + "\n[gamma]\nkind = constant_body\n"
                "nu0 = 0.0 0.0 0.0 0.0 0.0 1.0\nmu = " + mu + "\n")
        level = tuple(float(v) for v in mu.split())
        if accepted:
            assert parse_config(text).gamma["mu"] == level
        else:
            with pytest.raises(ConfigError, match=r"\[gamma\] mu: sampling "
                               r"on a nonzero momentum level"):
                parse_config(text)

    def test_matching_requires_target_parameters(self):
        broken = DEMO.replace("target_m = 1.2\n", "")
        with pytest.raises(ConfigError, match=r"\[control\] target_m"):
            parse_config(broken)

    @pytest.mark.parametrize("old, new, message", [
        ("target_i = 2.0 1.5 1.0", "target_i = 2.0 1.5",
         "[control] target_i: expected 3 numbers, got 2"),
        ("target_m = 1.2", "target_m = 1.2 3",
         "[control] target_m: expected a single number, got 2"),
        ("target_m = 1.2", "target_m = -1.2",
         "[control] m, g, h entries must be finite and strictly positive, "
         "got [-1.2  9.8  0.5]"),
        ("target_chi = 0.0 0.0 1.0", "target_chi = 0.0 1.0 1.0",
         "[control] chi must be a unit 3-vector"),
    ])
    def test_matching_target_is_validated(self, old, new, message):
        with pytest.raises(ConfigError) as err:
            parse_config(DEMO.replace(old, new))
        assert str(err.value) == message

    def test_matching_requires_rigid_body_source(self):
        text = HT + """
[control]
kind = matching
target = heavy_top_free
target_i = 2.0 1.5 1.0
target_m = 1.2
target_g = 9.8
target_h = 0.5
target_chi = 0.0 0.0 1.0
"""
        with pytest.raises(ConfigError, match=r"\[control\] target"):
            parse_config(text)

    def test_matching_requires_zero_angles(self):
        text = DEMO.replace("l = 0.1 0.2 0.3",
                            "l = 0.1 0.2 0.3\ntheta = 0.5 0.0 0.0")
        with pytest.raises(ConfigError, match=r"\[initial\] theta"):
            parse_config(text)

    def test_constant_control_sizes_follow_the_system(self):
        cfg = parse_config(RB + "\n[control]\nkind = constant\n"
                                "d_l = 0.1 0.0 0.0\n")
        assert cfg.control["d_pi"] == (0.0, 0.0, 0.0)
        assert cfg.control["d_l"] == (0.1, 0.0, 0.0)
        assert "d_gamma" not in cfg.control
        cfg = parse_config(HT + "\n[control]\nkind = constant\n")
        assert cfg.control["d_gamma"] == (0.0, 0.0, 0.0)
        assert cfg.control["d_l"] == (0.0, 0.0)

    def test_declared_momentum_level_defaults_to_body_components(self):
        cfg = parse_config(RB + "\n[gamma]\nkind = constant_body\n"
                                "nu0 = 0.0 0.0 2.0\n")
        assert cfg.gamma["mu"] == (0.0, 0.0, 2.0)
        cfg = parse_config(RB + "\n[gamma]\nkind = constant_body\n"
                                "nu0 = 0.0 0.0 2.0\nmu = 0.0 0.0 0.0\n")
        assert cfg.gamma["mu"] == (0.0, 0.0, 0.0)

    def test_malformed_ini_is_a_config_error(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("kind = rigid_body_rotors\n")

    def test_inline_comments_are_stripped(self):
        commented = RB.replace(
            "kind = rigid_body_rotors",
            "kind = rigid_body_rotors  ; the torque-free body")
        commented = commented.replace("ibar = 1.0 2.0 3.0",
                                      "ibar = 1.0 2.0 3.0  # inertia sums")
        assert parse_config(commented) == parse_config(RB)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            cfgmod.load_config(tmp_path / "absent.ini")

    def test_file_that_is_not_utf8_is_a_config_error(self, tmp_path):
        path = tmp_path / "utf16.ini"
        path.write_bytes(b"\xff\xfe" + "[system]\n".encode("utf-16-le"))
        with pytest.raises(ConfigError, match=rf"scenario file "
                           rf"{re.escape(str(path))} is not UTF-8"):
            cfgmod.load_config(path)


REQUIRED = object()  # a key table default: the key must be given
KEEP = object()      # a key table default: not dropped, as the rest of
                     # its section would then be unknown keys

# Each [params] key of each system kind: its value and how it is read,
# n for n numbers or "num" for one number.
PARAM_KEYS = {
    "rigid_body_rotors": {"ibar": ("1.0 2.0 3.0", 3),
                          "j": ("0.5 0.4 0.3", 3)},
    "heavy_top_rotors": {"ibar": ("2.0 1.5 1.0", 3), "j": ("0.4 0.3", 2),
                         "m": ("1.2", "num"), "g": ("9.8", "num"),
                         "h": ("0.5", "num"), "chi": ("0.0 0.0 1.0", 3)},
    "heavy_top_free": {"i": ("2.0 1.5 1.0", 3), "m": ("1.2", "num"),
                       "g": ("9.8", "num"), "h": ("0.5", "num"),
                       "chi": ("0.0 0.0 1.0", 3)},
}


def _numbers(n, value=0.0):
    return " ".join([repr(value)] * n)


def _key_table(system):
    """Every section variant of a scenario on ``system``, written out
    apart from config: label -> (section, {key: (value, how, default)}),
    with how n (n numbers), "num", "int" or "str", and the parsed value
    of an omitted key as its default."""
    k = {"rigid_body_rotors": 3, "heavy_top_rotors": 2,
         "heavy_top_free": 0}[system]
    se3 = system != "rigid_body_rotors"
    dim = 6 if se3 else 3

    def params(keys, prefix=""):
        return {prefix + key: (value, how, REQUIRED)
                for key, (value, how) in keys.items()}

    initial = {"pi": ("0.1 0.2 0.3", 3, REQUIRED)}
    if se3:
        initial["gamma"] = ("0.0 0.0 1.0", 3, REQUIRED)
    initial["theta"] = (_numbers(k), k, (0.0,) * k)
    initial["l"] = (_numbers(k, 0.1), k, (0.0,) * k)
    level = {"mu": (_numbers(dim), dim, (0.0,) * dim),
             "samples": ("10", "int", 100)}
    gammas = {
        "zero": {},
        "exact_dW": {"name": ("rotor_quadratic", "str", REQUIRED)},
        "constant_body": {"nu0": (_numbers(dim), dim, REQUIRED),
                          "l0": (_numbers(k, 0.1), k, (0.0,) * k)},
        "explicit": {"components": (_numbers(dim + k), dim + k, REQUIRED),
                     "theta_coupling": (_numbers(k * k, 0.5), k * k,
                                        (0.0,) * (k * k))},
    }
    if k == 0:
        del gammas["exact_dW"]
    constant = {"kind": ("constant", "str", KEEP),
                "d_pi": (_numbers(3, 0.1), 3, (0.0,) * 3)}
    if se3:
        constant["d_gamma"] = (_numbers(3, 0.1), 3, (0.0,) * 3)
    constant["d_l"] = (_numbers(k, 0.1), k, (0.0,) * k)
    table = {
        "system": ("system", {"kind": (system, "str", REQUIRED)}),
        "params": ("params", params(PARAM_KEYS[system])),
        "initial": ("initial", initial),
        "run": ("run", {"dt": ("0.01", "num", 1e-3),
                        "t_final": ("1.0", "num", 10.0),
                        "seed": ("3", "int", 0)}),
        "control.none": ("control", {"kind": ("none", "str", "none")}),
        "control.constant": ("control", constant),
        "tolerances": ("tolerances", {
            "energy_drift": ("1e-7", "num", 1e-8),
            "casimir_drift": ("1e-7", "num", 1e-8),
            "equivalence": ("1e-5", "num", 1e-6)}),
    }
    for kind, keys in gammas.items():
        table[f"gamma.{kind}"] = ("gamma", {
            "kind": (kind, "str", REQUIRED), **keys, **level})
    if system == "rigid_body_rotors":
        for target in ("heavy_top_free", "rigid_body_rotors"):
            table[f"control.matching.{target}"] = ("control", {
                "kind": ("matching", "str", KEEP),
                "target": (target, "str", REQUIRED),
                **params(PARAM_KEYS[target], "target_")})
    return table


def _key_cases():
    for system in PARAM_KEYS:
        for label, (name, keys) in _key_table(system).items():
            for key in keys:
                yield pytest.param(system, label, key,
                                   id=f"{system}-{label}-{key}")


def _read_as(value, how):
    if how == "str":
        return value
    if how == "int":
        return int(value)
    numbers = tuple(float(tok) for tok in value.split())
    return numbers[0] if how == "num" else numbers


def _faults(how):
    """Bad values of a key read as ``how`` and the message tail each
    must raise."""
    if how == "str":
        return {}
    if how == "int":
        return {raw: f"expected an integer, got {raw!r}"
                for raw in ("1 2", "spin", "2.5", "inf")}
    faults = {"spin": "could not read 'spin' as numbers",
              "1.0 spin": "could not read '1.0 spin' as numbers",
              "inf": "entries must be finite",
              "1.0 nan": "entries must be finite"}
    if how == "num":
        faults.update({"1.0 1.0": "expected a single number, got 2",
                       "": "expected a single number, got 0"})
    else:
        faults[_numbers(how + 1)] = f"expected {how} numbers, got {how + 1}"
        if how:
            faults[_numbers(how - 1)] = \
                f"expected {how} numbers, got {how - 1}"
    return faults


class TestKeyTable:
    """Every declared key of every section, per system kind: a wrong
    count, a non-number, a non-finite entry, an omitted key and an extra
    key next to it each give their exact ``[section] key: ...`` outcome."""

    @staticmethod
    def _parse(system, label, section):
        table = _key_table(system)
        sections = {name: {key: value for key, (value, _, _) in keys.items()}
                    for name, keys in (table[part] for part in
                                       ("system", "params", "initial"))}
        sections[table[label][0]] = section
        return parse_config("".join(
            f"[{name}]\n" + "".join(f"{key} = {value}\n"
                                    for key, value in keys.items()) + "\n"
            for name, keys in sections.items()))

    @staticmethod
    def _error(system, label, section):
        with pytest.raises(ConfigError) as err:
            TestKeyTable._parse(system, label, section)
        return str(err.value)

    @pytest.mark.parametrize("system, label, key", list(_key_cases()))
    def test_every_declared_key_names_itself(self, system, label, key):
        name, keys = _key_table(system)[label]
        base = {k: value for k, (value, _, _) in keys.items()}
        value, how, default = keys[key]
        where = f"[{name}] {key}"
        cfg = self._parse(system, label, base)
        got = cfg.system if name == "system" else getattr(cfg, name)[key]
        assert got == _read_as(value, how)
        for raw, tail in _faults(how).items():
            assert self._error(system, label, {**base, key: raw}) \
                == f"{where}: {tail}", raw
        assert self._error(system, label, {**base, key + "_x": "1"}) \
            == f"[{name}] {key}_x: unknown key"
        dropped = {k: v for k, v in base.items() if k != key}
        if default is REQUIRED:
            assert self._error(system, label, dropped) \
                == f"{where}: missing required key"
        elif default is not KEEP:
            cfg = self._parse(system, label, dropped)
            assert getattr(cfg, name)[key] == default


class TestRoundTrip:
    CASES = {
        "rigid_body": RB,
        "heavy_top": HT + "\n[gamma]\nkind = constant_body\n"
                          "nu0 = 0.0 0.0 0.0 0.0 0.0 1.0\nsamples = 50\n",
        "rotor_free": HTF,
        "demo": DEMO,
        "identity": IDENT,
        "explicit": RB + "\n[gamma]\nkind = explicit\n"
                         "components = 0. 0. 0. 0.1 0.2 0.3\n"
                         "theta_coupling = 0. 0. 0. 1. 0. 0. 0. 0. 0.\n",
        "quadratic": RB + "\n[gamma]\nkind = exact_dW\n"
                          "name = rotor_quadratic\n",
        "constant_control": RB + "\n[control]\nkind = constant\n"
                                 "d_pi = 0.0 0.1 0.0\n",
        "heavy_top_control": HT + "\n[control]\nkind = constant\n"
                                  "d_gamma = 0.0 0.1 0.0\n",
    }

    # the exact canonical text, key order included
    EMITTED = {
        "demo": """\
[system]
kind = rigid_body_rotors

[params]
ibar = 1.0 2.0 3.0
j = 0.5 0.4 0.3

[initial]
pi = 0.3 -0.2 0.5
theta = 0.0 0.0 0.0
l = 0.1 0.2 0.3

[run]
dt = 0.001
t_final = 1.0
seed = 0

[control]
kind = matching
target = heavy_top_free
target_i = 2.0 1.5 1.0
target_m = 1.2
target_g = 9.8
target_h = 0.5
target_chi = 0.0 0.0 1.0

[tolerances]
energy_drift = 1e-08
casimir_drift = 1e-08
equivalence = 1e-06
""",
        "identity": """\
[system]
kind = rigid_body_rotors

[params]
ibar = 1.0 2.0 3.0
j = 0.5 0.4 0.3

[initial]
pi = 1.0 0.5 -0.2
theta = 0.0 0.0 0.0
l = 0.1 0.2 0.3

[run]
dt = 0.001
t_final = 10.0
seed = 0

[control]
kind = matching
target = rigid_body_rotors
target_ibar = 1.0 2.0 3.0
target_j = 0.5 0.4 0.3

[tolerances]
energy_drift = 1e-08
casimir_drift = 1e-08
equivalence = 1e-06
""",
        "explicit": """\
[system]
kind = rigid_body_rotors

[params]
ibar = 1.0 2.0 3.0
j = 0.5 0.4 0.3

[initial]
pi = 1.0 0.5 -0.2
theta = 0.0 0.0 0.0
l = 0.1 0.2 0.3

[run]
dt = 0.001
t_final = 10.0
seed = 0

[gamma]
kind = explicit
components = 0.0 0.0 0.0 0.1 0.2 0.3
theta_coupling = 0.0 0.0 0.0 1.0 0.0 0.0 0.0 0.0 0.0
mu = 0.0 0.0 0.0
samples = 100

[control]
kind = none

[tolerances]
energy_drift = 1e-08
casimir_drift = 1e-08
equivalence = 1e-06
""",
        "heavy_top_control": """\
[system]
kind = heavy_top_rotors

[params]
ibar = 2.0 1.5 1.0
j = 0.4 0.3
m = 1.2
g = 9.8
h = 0.5
chi = 0.5773502691896258 0.5773502691896258 0.5773502691896258

[initial]
pi = 0.1 0.2 0.3
gamma = 0.0 0.0 1.0
theta = 0.0 0.0
l = 0.0 0.0

[run]
dt = 0.001
t_final = 10.0
seed = 0

[control]
kind = constant
d_pi = 0.0 0.0 0.0
d_gamma = 0.0 0.1 0.0
d_l = 0.0 0.0

[tolerances]
energy_drift = 1e-08
casimir_drift = 1e-08
equivalence = 1e-06
""",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_emit_then_parse_is_identity(self, name):
        cfg = parse_config(self.CASES[name])
        text = emit_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert emit_config(again) == text

    @pytest.mark.parametrize("name", sorted(EMITTED))
    def test_emitted_text_is_pinned(self, name):
        assert emit_config(parse_config(self.CASES[name])) == \
            self.EMITTED[name]

    def test_emitted_text_spells_out_defaults(self):
        text = emit_config(parse_config(RB))
        assert "dt = 0.001" in text
        assert "seed = 0" in text
        assert "energy_drift = 1e-08" in text
        assert "theta = 0.0 0.0 0.0" in text


class TestBuilders:
    def test_params_types_per_system(self):
        assert isinstance(cfgmod.build_params(parse_config(RB)),
                          RigidBodyRotorParams)
        assert isinstance(cfgmod.build_params(parse_config(HT)),
                          HeavyTopRotorParams)
        assert isinstance(cfgmod.build_params(parse_config(HTF)),
                          HeavyTopParams)

    def test_initial_point_layouts(self):
        p = cfgmod.build_initial(parse_config(RB))
        assert (p.kind, p.n_theta, p.n_l) == (lie.SO3, 3, 3)
        assert_allclose(p.flat(), [1.0, 0.5, -0.2, 0, 0, 0, 0.1, 0.2, 0.3])
        q = cfgmod.build_initial(parse_config(HTF))
        assert (q.kind, q.n_theta, q.n_l) == (lie.SE3, 0, 0)
        assert_allclose(q.flat(), [0.1, 0.2, 0.3, 0.0, 0.0, 1.0])

    def test_matching_initial_point_drops_the_angle_slot(self):
        p = cfgmod.build_initial(parse_config(DEMO))
        assert (p.kind, p.n_theta, p.n_l) == (lie.SO3, 0, 3)

    def test_constant_control_enters_the_field(self):
        cfg = parse_config(RB + "\n[control]\nkind = constant\n"
                                "d_l = 0.25 0.0 0.0\n")
        system = cfgmod.build_system(cfg)
        p = cfgmod.build_initial(cfg)
        free = cfgmod.base_system(cfg)
        delta = field_at(system, p) - field_at(free, p)
        assert_allclose(delta, [0, 0, 0, 0, 0, 0, 0.25, 0, 0], atol=0)

    def test_section_families(self):
        section, mu = cfgmod.build_section(
            parse_config(RB + "\n[gamma]\nkind = zero\n"))
        assert section.family == "constant_body"
        assert np.all(mu == 0.0)
        section, mu = cfgmod.build_section(
            parse_config(RB + "\n[gamma]\nkind = exact_dW\n"
                              "name = rotor_quadratic\n"))
        assert section.family == "exact_dW"
        section, _ = cfgmod.build_section(
            parse_config(RB + "\n[gamma]\nkind = explicit\n"
                              "components = 0. 0. 0. 0.1 0.2 0.3\n"))
        assert section.family == "constant_body"

    def test_missing_gamma_section_is_an_error(self):
        cfg = parse_config(RB)
        with pytest.raises(ConfigError, match=r"\[gamma\] kind"):
            cfgmod.build_section(cfg)
        with pytest.raises(ConfigError, match=r"\[gamma\] kind"):
            cfgmod.sample_configurations(cfg, np.zeros(3),
                                         np.random.default_rng(0))

    def test_planted_coupling_sets_the_closedness_defect(self):
        cfg = parse_config(RB + "\n[gamma]\nkind = explicit\n"
                                "components = 0. 0. 0. 0.1 0.2 0.3\n"
                                "theta_coupling = 0. 0. 0. "
                                "1. 0. 0. 0. 0. 0.\n")
        section, mu = cfgmod.build_section(cfg)
        assert section.family == "custom"
        rng = np.random.default_rng(3)
        samples = cfgmod.sample_configurations(cfg, mu, rng)
        assert closedness_defect(section, samples=samples) == 1.0

    def test_symmetric_coupling_stays_closed(self):
        cfg = parse_config(RB + "\n[gamma]\nkind = explicit\n"
                                "components = 0. 0. 0. 0.1 0.2 0.3\n"
                                "theta_coupling = 0. 1. 0. "
                                "1. 0. 0. 0. 0. 2.\n")
        section, mu = cfgmod.build_section(cfg)
        rng = np.random.default_rng(3)
        samples = cfgmod.sample_configurations(cfg, mu, rng)
        assert closedness_defect(section, samples=samples) == 0.0

    def test_zero_level_samples_cover_the_group_globally(self):
        cfg = parse_config(RB + "\n[gamma]\nkind = zero\nsamples = 40\n")
        _, mu = cfgmod.build_section(cfg)
        rng = np.random.default_rng(0)
        samples = cfgmod.sample_configurations(cfg, mu, rng)
        assert len(samples) == 40
        assert np.all(np.abs(samples.theta) <= 1.0)
        rotations = samples.g.rot
        assert np.max(np.abs(rotations - rotations[0])) > 0.1

    def test_nonzero_level_samples_fix_the_momentum(self):
        cfg = parse_config(RB + "\n[gamma]\nkind = constant_body\n"
                                "nu0 = 0.0 0.0 2.0\nsamples = 25\n")
        _, mu = cfgmod.build_section(cfg)
        rng = np.random.default_rng(1)
        samples = cfgmod.sample_configurations(cfg, mu, rng)
        for rot in samples.g.rot:
            assert_allclose(lie.Ad_star(lie.GroupElement(lie.SO3, rot), mu),
                            mu, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 3, 2027])
    @pytest.mark.parametrize("text", [RB, HT], ids=["so3", "se3"])
    def test_zero_level_stack_is_the_array_draws(self, text, seed):
        # the (n, k) uniform angles in one call, then one
        # lie.random_group per sample, whose normals follow one another
        cfg = parse_config(text + "\n[gamma]\nkind = zero\nsamples = 30\n")
        _, mu = cfgmod.build_section(cfg)
        stack = cfgmod.sample_configurations(cfg, mu,
                                             np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        k = cfgmod.rotor_count(cfg.system)
        kind = cfgmod.algebra_kind(cfg.system)
        theta = rng.uniform(-1.0, 1.0, (30, k))
        want = [lie.random_group(rng, kind) for _ in range(30)]
        assert np.array_equal(stack.g.rot, [g.rot for g in want])
        if kind == lie.SE3:
            assert np.array_equal(stack.g.trans, [g.trans for g in want])
        assert np.array_equal(stack.theta, theta)

    def test_samples_retain_one_stacked_row_each(self):
        # 112 B a sample on the heavy top (a 3x3 rotation, a translation
        # and two angles); one configuration object per sample held
        # 657 B before sampling stacked them. The peak adds the rotation
        # check's temporaries over the stack. Traced sampling runs about
        # 5x slower than untraced, so this draws 10^4 samples; 10^5
        # retain 112 B each and peak at about 26 MB.
        n = 10**4
        cfg = parse_config(HT + "\n[gamma]\nkind = constant_body\n"
                                f"nu0 = 0. 0. 0. 0. 0. 1.\nsamples = {n}\n")
        _, mu = cfgmod.build_section(cfg)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            samples = cfgmod.sample_configurations(cfg, mu, rng)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(samples) == n
        assert held - base <= 150 * n
        assert peak - base <= 400 * n

    def test_sampling_is_seed_deterministic(self):
        cfg = parse_config(RB + "\n[gamma]\nkind = zero\nsamples = 7\n")
        _, mu = cfgmod.build_section(cfg)
        a = cfgmod.sample_configurations(cfg, mu,
                                         np.random.default_rng(11))
        b = cfgmod.sample_configurations(cfg, mu,
                                         np.random.default_rng(11))
        assert np.array_equal(a.g.rot, b.g.rot)
        assert np.array_equal(a.theta, b.theta)

    def test_identity_matching_control_vanishes(self):
        cfg = parse_config(IDENT)
        _, control, _, to_target = cfgmod.build_matching(cfg)
        p = cfgmod.build_initial(cfg)
        assert to_target(p) is p
        assert np.linalg.norm(control(p.flat().tolist())) == 0.0

    def test_matching_control_reproduces_the_target_field(self):
        cfg = parse_config(DEMO)
        _, _, target_system, to_target = cfgmod.build_matching(cfg)
        system = cfgmod.build_system(cfg)
        p = cfgmod.build_initial(cfg)
        q = to_target(p)
        assert_allclose(field_at(system, p), field_at(target_system, q),
                        rtol=0, atol=1e-13)

    def test_matching_needs_a_matching_config(self):
        with pytest.raises(ConfigError, match=r"\[control\] kind"):
            cfgmod.build_matching(parse_config(RB))
