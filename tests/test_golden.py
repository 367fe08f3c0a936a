"""Stored reference outputs of the CLI (guarantee 9, against fixed bytes)
and of attitude reconstruction.

Each case runs one command once and compares every file it writes with
the copy under ``tests/golden/<case>/``. Each reconstruction case writes
sampled attitudes and the momentum drift to
``tests/golden/reconstruct/<case>.txt``, each full-space
Hamilton-Jacobi case the gate values and residuals of four sections to
``tests/golden/hj-full/<case>.txt``, and the bracket axiom suite every
report field of its three sweeps to
``tests/golden/bracket-suite/reports.txt``. Guarantee 9 checks that two
runs agree with each other; this checks that a refactor leaves the bytes
where they were. A change that moves a golden file on purpose
regenerates it with

    PYTHONPATH=src python tests/test_golden.py

and names each changed line and its numeric difference in CHANGES.md.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gyrostat import hamilton_jacobi as hj
from gyrostat import lie, systems
from gyrostat.cli import main as cli_main
from gyrostat.controlled import flat_dynamical_field
from gyrostat.integrate import run
from gyrostat.poisson import BRACKET_SPACES, bracket_axiom_suite, reduced_point
from gyrostat.reduction import momentum_drift, reconstruct
from test_acceptance import HJ_CHECK, HT, RB, SIMULATE, TRANSPORT
from test_mutations import plant_bracket_sign_error

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

# The rigid body on a nonzero momentum level: the samples come from the
# SO(3) isotropy subgroup of nu0, rotations about the third axis. The
# rotor momentum l0_3 = j_3 nu0_3 / (ibar_3 + j_3) = 0.6 / 3.3 parks the
# third rotor, so this spun-up equilibrium solves the system and every
# sample passes.
RIGID_ISOTROPY_PROBE = SIMULATE + """
[gamma]
kind = constant_body
nu0 = 0.0 0.0 2.0
l0 = 0.0 0.0 0.18181818181818182
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
    "hj-check-rigid-isotropy": (["hj-check", "--seed", "1"],
                                RIGID_ISOTROPY_PROBE),
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


# The full-space flavor of section_residuals (mu None), which neither the
# CLI nor a demo reaches: the rigid body, free and under a constant
# vertical control, and the heavy top.
# case -> system
HJ_FULL_CASES = {
    "rigid-body": systems.rigid_body_system(RB),
    "rigid-body-constant-control": replace(
        systems.rigid_body_system(RB),
        control=lambda x: [0.1, -0.05, 0.02, 0.0, 0.0, 0.0,
                           0.25, 0.0, -0.1]),
    "heavy-top": systems.heavy_top_system(HT),
}


def _hj_full_sections(kind: str, k: int) -> dict:
    """The zero section, an exact section differenced without a jacobian,
    a symmetric affine rotor section and the rotor quadratic, over
    ``kind`` with k >= 2 rotor slots."""
    d = lie.algebra_dim(kind)
    a = np.array([0.3, -0.5, 0.8])

    def grad_w(q):
        # W = a . R e3 + theta_1^2 theta_2 / 2; the body derivative of
        # a . R e3 along xi is xi . (e3 x R^T a). The trivialized gate
        # has no bracket term, so this body part reads as order-one
        # non-closedness there.
        theta = q.theta
        angles = np.zeros((len(q), k))
        angles[:, 0] = theta[:, 0] * theta[:, 1]
        angles[:, 1] = 0.5 * theta[:, 0] ** 2
        return np.concatenate([np.cross([0.0, 0.0, 1.0], q.g.rot.mT @ a),
                               np.zeros((len(q), d - 3)), angles], axis=1)

    coupling = 0.2 * np.eye(k) + 0.1
    offset = np.zeros(k)
    offset[0] = 3.0
    return {
        "zero": hj.zero_section(kind, k),
        "exact": hj.exact_section(kind, k, grad_w),
        "affine": hj.affine_rotor_section(
            np.linspace(0.6, -0.4, d),
            np.linspace(0.1, -0.2, k), coupling),
        "rotor_quadratic": hj.rotor_quadratic_section(kind, offset),
    }


def _hj_full_text(case: str) -> bytes:
    """Each section's closedness and pullback-identity defects, then the
    full-space residuals over a stack of three sampled configurations,
    each float written with repr."""
    sys = HJ_FULL_CASES[case]
    rng = np.random.default_rng(31)
    k = sys.rotor_count
    qs = hj.random_configurations(rng, sys.kind, rng.standard_normal((3, k)))
    lines = []
    for name, sec in _hj_full_sections(sys.kind, sys.rotor_count).items():
        lines += [f"section {name}",
                  f"closedness_defect {hj.closedness_defect(sec)!r}",
                  f"pullback_identity_defect "
                  f"{hj.pullback_identity_defect(sec)!r}"]
        residuals = hj.section_residuals(sys, sec, qs)
        for i, (rel, comp, x) in enumerate(zip(*residuals)):
            lines += [f"sample {i} relatedness {float(rel)!r}",
                      f"sample {i} hj_components "
                      + " ".join(map(repr, comp.tolist())),
                      f"sample {i} x_gamma "
                      + " ".join(map(repr, x.tolist()))]
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("case", sorted(HJ_FULL_CASES))
def test_full_space_residuals_match_golden(case):
    stored = (GOLDEN / "hj-full" / f"{case}.txt").read_bytes()
    fresh = _hj_full_text(case)
    assert stored == fresh, _first_difference(f"hj-full/{case}.txt",
                                              stored, fresh)


# The axiom suite's reports at three seeds and with the planted bracket
# sign error of test_mutations: each run as (seed, instances, inject).
BRACKET_SUITE_RUNS = [(1, 300, False), (10, 300, False), (2027, 300, False),
                      (12, 40, True)]


def _bracket_suite_text() -> bytes:
    """Every report field of the three sweeps in each of
    BRACKET_SUITE_RUNS, written with repr."""
    lines = []
    for seed, n, inject in BRACKET_SUITE_RUNS:
        with pytest.MonkeyPatch.context() as patch:
            if inject:
                plant_bracket_sign_error(patch)
            for name in sorted(BRACKET_SPACES):
                report = bracket_axiom_suite(name, n, seed)
                lines += [f"{name} seed {seed} inject {inject} {key} "
                          f"{value!r}" for key, value in report.items()]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_bracket_suite_matches_golden():
    stored = (GOLDEN / "bracket-suite" / "reports.txt").read_bytes()
    fresh = _bracket_suite_text()
    assert stored == fresh, _first_difference("bracket-suite/reports.txt",
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


def test_probe_reads_the_gradient_once_per_block(tmp_path, monkeypatch):
    # hj-check reads the fiber rows once and takes one full_dynamical_field
    # per lie.CHUNK block over the flat states of those rows and the
    # samples' angles, whose rates and body velocity share one gradient
    # read on the columns of the block: one grad_row call per block, and
    # the calls cover each of the 40 samples once, here in blocks of 16
    monkeypatch.setattr(lie, "CHUNK", 16)
    rows = []
    build = systems.heavy_top_hamiltonian

    def counted(params):
        h = build(params)

        def grad_row(x):
            rows.append(len(x[0]))
            return h.grad_row(x)

        return replace(h, grad_row=grad_row)

    monkeypatch.setattr(systems, "heavy_top_hamiltonian", counted)
    _run("hj-check-heavy-top", tmp_path)
    assert rows == [16, 16, 8]


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
    (GOLDEN / "hj-full").mkdir(exist_ok=True)
    for case in HJ_FULL_CASES:
        path = GOLDEN / "hj-full" / f"{case}.txt"
        path.write_bytes(_hj_full_text(case))
        print(f"wrote {path}")
    (GOLDEN / "bracket-suite").mkdir(exist_ok=True)
    path = GOLDEN / "bracket-suite" / "reports.txt"
    path.write_bytes(_bracket_suite_text())
    print(f"wrote {path}")
