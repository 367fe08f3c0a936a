"""Seeded inputs and output checks for the four benchmark workloads.

Each workload is one ``gyrostat`` subcommand on a fixed scenario; the
seed only draws the inputs. ``spin`` and ``transport`` draw the
directions of their initial ``pi`` and ``l`` at the magnitudes of the
acceptance scenarios (``theta`` stays zero); ``probe`` and ``axioms``
pass the seed to the command through ``--seed``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Magnitudes of the acceptance scenarios: criterion 3 for the rigid
# body, criterion 7 for the matching transport.
SPIN_PI, SPIN_L = (1.0, 0.4, -0.7), (0.1, -0.2, 0.3)
TRANSPORT_PI, TRANSPORT_L = (0.3, -0.2, 0.5), (0.0, 0.1, 0.98)

SPIN = """\
[system]
kind = rigid_body_rotors

[params]
ibar = 1.0 2.0 3.0
j = 0.5 0.4 0.3

[initial]
pi = {pi}
l = {l}
"""

TRANSPORT = """\
[system]
kind = rigid_body_rotors

[params]
ibar = 3.0 2.5 2.0
j = 0.5 0.4 0.3

[initial]
pi = {pi}
l = {l}

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

# The unsolved scenario of criterion 5: the zero candidate on the
# gravity level leaves the torque unbalanced, so every sample fails.
PROBE = """\
[system]
kind = heavy_top_rotors

[params]
ibar = 2.0 1.5 1.0
j = 0.4 0.3
m = 1.2
g = 9.8
h = 0.5
chi = {chi}

[initial]
pi = 0.4 -0.2 0.8
gamma = 0.0 0.0 1.0

[gamma]
kind = constant_body
nu0 = 0.0 0.0 0.0 0.0 0.0 1.0
l0 = 0.0 0.0
samples = {samples}
"""

SPIN_ROWS = 10001
PROBE_SAMPLES = 500


def _text(vec) -> str:
    return " ".join(repr(float(v)) for v in vec)


def _draw(rng, like) -> str:
    """A random direction scaled to the norm of ``like``."""
    v = rng.standard_normal(3)
    return _text(v * (np.linalg.norm(like) / np.linalg.norm(v)))


def _kv(path: Path) -> dict:
    return dict(line.split(" = ", 1) for line in
                path.read_text(encoding="utf-8").splitlines())


def _check_spin(out: Path):
    summary = (out / "drift_summary.txt").read_text(encoding="utf-8")
    if "overall: pass" not in summary.splitlines():
        return "drift_summary.txt does not say overall: pass"
    rows = (out / "trajectory.csv").read_bytes().count(b"\n") - 1
    if rows != SPIN_ROWS:
        return f"trajectory.csv has {rows} data rows, want {SPIN_ROWS}"
    return None


def _check_transport(out: Path):
    kv = _kv(out / "equivalence.txt")
    if kv.get("engaged_within_tolerance") != "yes":
        return "engaged run is not within tolerance"
    if not float(kv["disengaged_deviation"]) > 1e-2:
        return (f"disengaged deviation {kv['disengaged_deviation']} "
                "is not above 1e-2")
    return None


def _check_probe(out: Path):
    kv = _kv(out / "hj_report.kv")
    if kv.get("verdict") != "FAIL":
        return f"verdict {kv.get('verdict')}, want FAIL"
    if kv.get("sample_count") != str(PROBE_SAMPLES):
        return f"sample_count {kv.get('sample_count')}, want {PROBE_SAMPLES}"
    if "INCONSISTENT" in (out / "hj_report.txt").read_text(encoding="utf-8"):
        return "hj_report.txt has an INCONSISTENT row"
    return None


def _check_axioms(out: Path):
    report = (out / "bracket_report.txt").read_text(encoding="utf-8")
    if "overall: pass" not in report.splitlines():
        return "bracket_report.txt does not say overall: pass"
    return None


CHECKS = {"spin": _check_spin, "transport": _check_transport,
          "probe": _check_probe, "axioms": _check_axioms}


def prepare(name: str, seed: int, work: Path) -> list:
    """Write the workload's scenario under ``work`` and return the
    command's argv, without ``--out``."""
    rng = np.random.default_rng(seed)
    scenario = work / "scenario.ini"
    if name == "spin":
        scenario.write_text(SPIN.format(pi=_draw(rng, SPIN_PI),
                                        l=_draw(rng, SPIN_L)))
        return ["simulate", "--config", str(scenario)]
    if name == "transport":
        scenario.write_text(TRANSPORT.format(pi=_draw(rng, TRANSPORT_PI),
                                             l=_draw(rng, TRANSPORT_L)))
        return ["equivalence-demo", "--config", str(scenario)]
    if name == "probe":
        scenario.write_text(PROBE.format(chi=_text(np.ones(3) / np.sqrt(3.0)),
                                         samples=PROBE_SAMPLES))
        return ["hj-check", "--config", str(scenario), "--seed", str(seed)]
    if name == "axioms":
        return ["bracket-verify", "--seed", str(seed)]
    raise ValueError(f"unknown workload {name!r}")


def check(name: str, out: Path):
    """None when the command's artifacts pass the workload's check,
    otherwise a one-line reason."""
    try:
        return CHECKS[name](out)
    except (OSError, KeyError, ValueError) as exc:
        return f"unreadable output: {exc!r}"
