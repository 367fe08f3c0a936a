"""Stored reference outputs of the CLI (guarantee 9, against fixed bytes)
and of attitude reconstruction.

Each case runs one command once and compares every file it writes with
the copy under ``tests/golden/<case>/``. Each reconstruction case writes
sampled attitudes and the momentum drift to
``tests/golden/reconstruct/<case>.txt``. Guarantee 9 checks that two
runs agree with each other; this checks that a refactor leaves the
bytes where they were. A change that moves a golden file on purpose
regenerates it with

    PYTHONPATH=src python tests/test_golden.py

and names each changed line and its numeric difference in CHANGES.md.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gyrostat import lie, systems
from gyrostat.cli import main as cli_main
from gyrostat.controlled import flat_dynamical_field
from gyrostat.integrate import run
from gyrostat.poisson import reduced_point
from gyrostat.reduction import momentum_drift, reconstruct
from test_acceptance import HJ_CHECK, HT, RB, SIMULATE, TRANSPORT

GOLDEN = Path(__file__).resolve().parent / "golden"

HEAVY_TOP = """\
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
pi = 0.4 -0.2 0.8
gamma = 0.0 0.0 1.0
"""

# The unsolved heavy-top probe: the zero-torque constant-body candidate
# on the gravity level, so every sample takes the reduced FAIL path.
HEAVY_TOP_PROBE = HEAVY_TOP + """
[gamma]
kind = constant_body
nu0 = 0.0 0.0 0.0 0.0 0.0 1.0
l0 = 0.0 0.0
samples = 40
"""

# The SE(3) invariant series (energy, pi_dot_gamma, gamma_sq) of a heavy
# top whose rotors carry angles and momenta.
HEAVY_TOP_SIMULATE = HEAVY_TOP.replace(
    "gamma = 0.0 0.0 1.0\n",
    "gamma = 0.0 0.0 1.0\ntheta = 0.1 -0.3\nl = 0.05 -0.04\n") + """
[run]
dt = 0.01
t_final = 1.0
"""

# A matching control toward a rigid body with other inertias: the maps
# between the two reduced spaces are the identity.
RIGID_TRANSPORT = SIMULATE + """
[control]
kind = matching
target = rigid_body_rotors
target_ibar = 2.5 1.5 3.5
target_j = 0.6 0.3 0.4
"""

# A constant vertical control, a lift of fixed components. The control
# pumps energy and pi_sq, so the drift bounds are opened to keep the
# command passing.
CONSTANT_CONTROL = SIMULATE + """
[control]
kind = constant
d_pi = 0.1 -0.05 0.02
d_l = 0.25 0.0 -0.1

[tolerances]
energy_drift = 10.0
casimir_drift = 10.0
"""

# A constant control on the heavy top with rotor angles: it fills every
# slot of the lift, d_gamma included, and zero-fills the angle slot.
HEAVY_TOP_CONSTANT_CONTROL = HEAVY_TOP_SIMULATE + """
[control]
kind = constant
d_pi = 0.1 -0.05 0.02
d_gamma = 0.03 -0.01 0.02
d_l = 0.25 -0.1

[tolerances]
energy_drift = 10.0
casimir_drift = 10.0
"""

# The same controlled heavy top under the unsolved constant-body probe:
# each sample's full field carries the control's lift.
HEAVY_TOP_CONSTANT_CONTROL_PROBE = HEAVY_TOP_CONSTANT_CONTROL \
    + HEAVY_TOP_PROBE[len(HEAVY_TOP):]

# case -> (subcommand and flags, scenario text or None)
CASES = {
    "simulate": (["simulate"], SIMULATE),
    "hj-check": (["hj-check"], HJ_CHECK),
    "equivalence-demo": (["equivalence-demo"],
                         TRANSPORT.replace("dt = 0.001", "dt = 0.01")),
    "bracket-verify": (["bracket-verify", "--seed", "0"], None),
    "hj-check-heavy-top": (["hj-check", "--seed", "1"], HEAVY_TOP_PROBE),
    "simulate-heavy-top": (["simulate"], HEAVY_TOP_SIMULATE),
    "equivalence-demo-rigid": (["equivalence-demo"], RIGID_TRANSPORT),
    "simulate-constant-control": (["simulate"], CONSTANT_CONTROL),
    "simulate-heavy-top-constant-control": (["simulate"],
                                            HEAVY_TOP_CONSTANT_CONTROL),
    "hj-check-constant-control": (["hj-check", "--seed", "1"],
                                  HEAVY_TOP_CONSTANT_CONTROL_PROBE),
}


def _run(case: str, work: Path) -> Path:
    argv, scenario = CASES[case]
    work.mkdir(parents=True, exist_ok=True)
    if scenario is not None:
        ini = work / "scenario.ini"
        ini.write_text(scenario)
        argv = argv + ["--config", str(ini)]
    out = work / "out"
    code = cli_main(argv + ["--out", str(out), "--quiet"])
    assert code == 0, f"{case} exited {code}"
    return out


def _first_difference(name: str, stored: bytes, fresh: bytes) -> str:
    old = stored.decode("utf-8").splitlines()
    new = fresh.decode("utf-8").splitlines()
    for i in range(max(len(old), len(new))):
        a = old[i] if i < len(old) else "<end of file>"
        b = new[i] if i < len(new) else "<end of file>"
        if a != b:
            return f"{name} line {i + 1}: stored {a!r}, fresh {b!r}"
    return f"{name}: same lines, different bytes (line endings?)"


# Reconstruction over T = 1 at dt = 1e-3: the acceptance-4 rigid body at
# orders 4 and 1, and the demo-03 heavy top at order 4, free and under a
# constant control whose lift the order-4 joint field must carry.
# case -> (system, initial point, order)
RECONSTRUCT_CASES = {
    "rigid-body-order4": (
        systems.rigid_body_system(RB),
        reduced_point(lie.SO3, (1.0, 0.4, -0.7), theta=(0.0, 0.0, 0.0),
                      l=(0.1, -0.2, 0.3)), 4),
    "heavy-top-order4": (
        systems.heavy_top_system(HT),
        reduced_point(lie.SE3, (0.4, -0.2, 0.8),
                      np.array([0.2, -0.1, 0.97])
                      / np.linalg.norm([0.2, -0.1, 0.97]),
                      theta=(0.0, 0.0), l=(0.05, -0.04)), 4),
    "heavy-top-control-order4": (
        replace(systems.heavy_top_system(HT),
                control=lambda x: [0.05, -0.02, 0.0, 0.0, 0.0, 0.0,
                                   0.0, 0.0, 0.1, -0.1]),
        reduced_point(lie.SE3, (0.4, -0.2, 0.8),
                      np.array([0.2, -0.1, 0.97])
                      / np.linalg.norm([0.2, -0.1, 0.97]),
                      theta=(0.0, 0.0), l=(0.05, -0.04)), 4),
    "rigid-body-order1": (
        systems.rigid_body_system(RB),
        reduced_point(lie.SO3, (1.0, 0.4, -0.7), theta=(0.0, 0.0, 0.0),
                      l=(0.1, -0.2, 0.3)), 1),
}


def _reconstruct_text(case: str) -> bytes:
    """Every 100th rotation and translation and the momentum drift, each
    float written with repr."""
    sys, p0, order = RECONSTRUCT_CASES[case]
    traj = run(flat_dynamical_field(sys, p0.layout), p0, 1e-3, 1.0)
    groups = reconstruct(traj, lie.identity(p0.kind), sys, order=order)
    lines = []
    for i in range(0, len(traj.states), 100):
        lines.append(f"step {i} rot "
                     + " ".join(map(repr, groups.rot[i].ravel().tolist())))
        if groups.trans is not None:
            lines.append(f"step {i} trans "
                         + " ".join(map(repr, groups.trans[i].tolist())))
    lines.append(f"momentum_drift {momentum_drift(traj, groups)!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("case", sorted(RECONSTRUCT_CASES))
def test_reconstruction_matches_golden(case):
    stored = (GOLDEN / "reconstruct" / f"{case}.txt").read_bytes()
    fresh = _reconstruct_text(case)
    assert stored == fresh, _first_difference(f"reconstruct/{case}.txt",
                                              stored, fresh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path):
    out = _run(case, tmp_path)
    stored_dir = GOLDEN / case
    stored = sorted(p.name for p in stored_dir.iterdir())
    fresh = sorted(p.name for p in out.iterdir())
    assert fresh == stored, f"{case}: wrote {fresh}, golden has {stored}"
    for name in stored:
        a = (stored_dir / name).read_bytes()
        b = (out / name).read_bytes()
        assert a == b, _first_difference(f"{case}/{name}", a, b)


def test_probe_evaluates_the_gradient_once_per_sample(tmp_path,
                                                      monkeypatch):
    # each hj-check sample takes one full_dynamical_field, whose rates
    # and body velocity share one evaluation of the gradient
    calls = []
    build = systems.heavy_top_hamiltonian

    def counted(params):
        h = build(params)

        def grad_row(x):
            calls.append(1)
            return h.grad_row(x)

        return replace(h, grad_row=grad_row)

    monkeypatch.setattr(systems, "heavy_top_hamiltonian", counted)
    _run("hj-check-heavy-top", tmp_path)
    assert len(calls) == 40


if __name__ == "__main__":
    import shutil
    import tempfile

    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            shutil.copytree(_run(case, Path(tmp)), GOLDEN / case)
            print(f"wrote {GOLDEN / case}")
    (GOLDEN / "reconstruct").mkdir(exist_ok=True)
    for case in RECONSTRUCT_CASES:
        path = GOLDEN / "reconstruct" / f"{case}.txt"
        path.write_bytes(_reconstruct_text(case))
        print(f"wrote {path}")
