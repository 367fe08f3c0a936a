"""Acceptance gate: one test per shipped guarantee.

Each test prints a single line of the form

    acceptance <n> <name>: PASS|FAIL (<measured figure vs bound>)

and fails the suite when its bound is not met. Run with

    pytest tests/test_acceptance.py -v -s

to see the lines as they print; without -s they still appear in the
captured output of any failing test.
"""

import time

import numpy as np

from gyrostat import config as cfgmod
from gyrostat import hamilton_jacobi as hj
from gyrostat import lie, systems
from gyrostat.cli import main as cli_main
from gyrostat.controlled import dynamical_field, flat_dynamical_field
from gyrostat.integrate import run, standard_invariants
from gyrostat.poisson import (axiom_suite_passes, bracket_axiom_suite,
                              reduced_point)
from gyrostat.reduction import momentum_drift, reconstruct

RB = systems.RigidBodyRotorParams((1.0, 2.0, 3.0), (0.5, 0.4, 0.3))
HT = systems.HeavyTopRotorParams((2.0, 1.5, 1.0), (0.4, 0.3), 1.2, 9.8, 0.5,
                                 np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
FREE = systems.HeavyTopParams((2.0, 1.5, 1.0), 1.2, 9.8, 0.5,
                              (0.0, 0.0, 1.0))


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {criterion}: {detail}"


def test_criterion_1_bracket_axioms():
    start = time.perf_counter()
    reports = [bracket_axiom_suite(name, n_instances=1000, seed=0)
               for name in ("so3_lie_poisson", "so3_product", "se3_product")]
    elapsed = time.perf_counter() - start
    worst = {axiom: max(r[axiom] for r in reports)
             for axiom in ("max_antisymmetry", "max_leibniz", "max_jacobi")}
    ok = all(axiom_suite_passes(r) for r in reports) and elapsed < 10.0
    check("1 bracket axioms", ok,
          f"antisymmetry {worst['max_antisymmetry']:.1e} <= 1e-12, "
          f"Leibniz {worst['max_leibniz']:.1e} <= 1e-8, "
          f"Jacobi {worst['max_jacobi']:.1e} <= 2e-5, "
          f"3 x 1000 instances in {elapsed:.1f} s < 10 s")


def test_criterion_2_closed_form_fields_match_bracket_path():
    rng = np.random.default_rng(2)
    rb_sys = systems.rigid_body_system(RB)
    ht_sys = systems.heavy_top_system(HT)
    start = time.perf_counter()
    worst_rb = worst_ht = 0.0
    for _ in range(1000):
        p = reduced_point(lie.SO3, rng.standard_normal(3),
                          theta=rng.standard_normal(3),
                          l=rng.standard_normal(3))
        diff = systems.rigid_body_field(RB, p).flat() \
            - dynamical_field(rb_sys, p).flat()
        worst_rb = max(worst_rb, float(np.max(np.abs(diff))))
        q = reduced_point(lie.SE3, rng.standard_normal(3),
                          rng.standard_normal(3),
                          theta=rng.standard_normal(2),
                          l=rng.standard_normal(2))
        diff = systems.heavy_top_field(HT, q).flat() \
            - dynamical_field(ht_sys, q).flat()
        worst_ht = max(worst_ht, float(np.max(np.abs(diff))))
    elapsed = time.perf_counter() - start
    ok = worst_rb <= 1e-10 and worst_ht <= 1e-10 and elapsed < 5.0
    check("2 field oracles", ok,
          f"closed form vs bracket path: body {worst_rb:.1e}, "
          f"top {worst_ht:.1e} <= 1e-10 on 1000 states each, "
          f"{elapsed:.1f} s < 5 s")


def test_criterion_3_energy_and_casimir_drift():
    start = time.perf_counter()
    drifts = {}

    rb_sys = systems.rigid_body_system(RB)
    p0 = reduced_point(lie.SO3, (1.0, 0.4, -0.7), theta=(0.0, 0.0, 0.0),
                       l=(0.1, -0.2, 0.3))
    traj = run(flat_dynamical_field(rb_sys, p0.layout), p0, 1e-3, 10.0,
               standard_invariants(rb_sys.hamiltonian, lie.SO3))
    for name in traj.series:
        drifts[f"body {name}"] = traj.max_drift(name)

    ht_sys = systems.heavy_top_system(HT)
    gamma0 = np.array([0.2, -0.1, 0.97])
    gamma0 /= np.linalg.norm(gamma0)
    q0 = reduced_point(lie.SE3, (0.4, -0.2, 0.8), gamma0,
                       theta=(0.0, 0.0), l=(0.05, -0.04))
    traj = run(flat_dynamical_field(ht_sys, q0.layout), q0, 1e-3, 10.0,
               standard_invariants(ht_sys.hamiltonian, lie.SE3))
    for name in traj.series:
        drifts[f"top {name}"] = traj.max_drift(name)

    elapsed = time.perf_counter() - start
    worst_name = max(drifts, key=drifts.get)
    ok = drifts[worst_name] <= 1e-8 and elapsed < 30.0
    check("3 conservation", ok,
          f"worst relative drift {drifts[worst_name]:.1e} "
          f"({worst_name}) <= 1e-8 over T = 10 at dt = 1e-3, "
          f"{elapsed:.1f} s < 30 s")


def test_criterion_4_reconstructed_momentum_map():
    sys = systems.rigid_body_system(RB)
    p0 = reduced_point(lie.SO3, (1.0, 0.4, -0.7), theta=(0.0, 0.0, 0.0),
                       l=(0.1, -0.2, 0.3))
    traj = run(flat_dynamical_field(sys, p0.layout), p0, 1e-3, 10.0)
    groups = reconstruct(traj, lie.identity(lie.SO3), sys, order=4)
    drift = momentum_drift(traj, groups)
    check("4 momentum map", drift <= 1e-6,
          f"max |J(t) - J(0)| = {drift:.1e} <= 1e-6 on the reconstructed "
          f"trajectory, T = 10 at dt = 1e-3")


def test_criterion_5_residuals_pass_and_fail_together():
    rng = np.random.default_rng(5)

    # Solved scenario: kinetic-only body, zero section, zero level.
    rb_sys = systems.rigid_body_system(RB)
    zero = hj.zero_section(lie.SO3, 3)
    mu0 = lie.coalgebra(lie.SO3, np.zeros(3))
    qs = hj.random_configurations(rng, lie.SO3,
                                  rng.standard_normal((100, 3)))
    solved = hj.theorem_equivalence_probe(rb_sys, zero, qs, mu0)

    # Unsolved scenario: gravity torque survives the zero candidate.
    a = np.array([0.0, 0.0, 1.0])
    mu = lie.coalgebra(lie.SE3, np.zeros(3), a)
    sec = hj.constant_body_section(mu, np.zeros(2))
    ht_sys = systems.heavy_top_system(HT)
    qs_top = hj.isotropy_configurations(rng, mu, 100, 2)
    unsolved = hj.theorem_equivalence_probe(ht_sys, sec, qs_top, mu)

    worst_pass = float(max(solved.relatedness.max(), solved.hj.max()))
    floor_fail = float(min(unsolved.relatedness.min(), unsolved.hj.min()))
    inconsistent = (solved.labels + unsolved.labels).count("INCONSISTENT")
    ok = (solved.verdict == "PASS" and worst_pass <= 1e-6
          and unsolved.verdict == "FAIL" and floor_fail >= 1e-3
          and inconsistent == 0)
    check("5 residual co-vanishing", ok,
          f"solved: max residual {worst_pass:.1e} <= 1e-6 on 100 samples; "
          f"unsolved: min residual {floor_fail:.1e} >= 1e-3 on 100; "
          f"{inconsistent} inconsistent")


def at_identity(kind, theta):
    """The one-row configuration stack at the identity with rotor angles
    theta."""
    g = lie.GroupPath(kind, np.eye(3)[None],
                      None if kind == lie.SO3 else np.zeros((1, 3)))
    return hj.ConfigurationStack(g, np.reshape(theta, (1, -1)))


def test_criterion_6_assembled_equations_match_generic_residual():
    rng = np.random.default_rng(6)
    worst = {}

    rb_sys = systems.rigid_body_system(RB)
    ib, jj = np.asarray(RB.ibar), np.asarray(RB.j)
    scales = np.array([ib[1] * ib[2], ib[2] * ib[0], ib[0] * ib[1],
                       ib[0] * jj[0], ib[1] * jj[1], ib[2] * jj[2],
                       1.0, 1.0, 1.0])
    gap = 0.0
    for _ in range(500):
        pi = rng.standard_normal(3)
        theta = rng.standard_normal(3)
        l0 = rng.standard_normal(3)
        nu = lie.coalgebra(lie.SO3, pi)
        sec = hj.constant_body_section(nu, l0)
        q = at_identity(lie.SO3, theta)
        comp = hj.section_residuals(rb_sys, sec, q, nu)[1][0]
        cand = systems.HJCandidate(np.concatenate([pi, theta, l0]),
                                   np.zeros(9))
        rows = systems.rigid_body_hj_lhs(RB, cand)
        gap = max(gap, float(np.max(np.abs(rows - scales * comp))))
    worst["body"] = gap

    ht_sys = systems.heavy_top_system(HT)
    ib, jj = np.asarray(HT.ibar), np.asarray(HT.j)
    scales = np.array([ib[1] * ib[2], ib[2] * ib[0], ib[0] * ib[1],
                       ib[1] * ib[2], ib[2] * ib[0], ib[0] * ib[1],
                       ib[0] * jj[0], ib[1] * jj[1], 1.0, 1.0])
    gap = 0.0
    for _ in range(500):
        pi = rng.standard_normal(3)
        gamma = rng.standard_normal(3)
        theta = rng.standard_normal(2)
        l0 = rng.standard_normal(2)
        nu = lie.coalgebra(lie.SE3, pi, gamma)
        sec = hj.constant_body_section(nu, l0)
        q = at_identity(lie.SE3, theta)
        comp = hj.section_residuals(ht_sys, sec, q, nu)[1][0]
        cand = systems.HJCandidate(np.concatenate([pi, theta, l0]),
                                   np.zeros(10), advected=gamma)
        rows = systems.heavy_top_hj_lhs(HT, cand)
        gap = max(gap, float(np.max(np.abs(rows - scales * comp))))
    worst["top"] = gap

    free_sys = systems.heavy_top_free_system(FREE)
    i = np.asarray(FREE.i)
    scales = np.array([i[1] * i[2], i[2] * i[0], i[0] * i[1]] * 2)
    gap = 0.0
    for _ in range(500):
        pi = rng.standard_normal(3)
        gamma = rng.standard_normal(3)
        nu = lie.coalgebra(lie.SE3, pi, gamma)
        sec = hj.constant_body_section(nu)
        q = at_identity(lie.SE3, ())
        comp = hj.section_residuals(free_sys, sec, q, nu)[1][0]
        cand = systems.HJCandidate(pi, np.zeros(0), advected=gamma)
        rows = systems.heavy_top_lp_hj_lhs(FREE, cand)
        gap = max(gap, float(np.max(np.abs(rows - scales * comp))))
    worst["rotor-free top"] = gap

    ok = all(v <= 1e-10 for v in worst.values())
    check("6 explicit equations", ok,
          "assembled vs generic: "
          + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
          + " <= 1e-10 on 500 pairs each")


TRANSPORT = """\
[system]
kind = rigid_body_rotors

[params]
ibar = 3.0 2.5 2.0
j = 0.5 0.4 0.3

[initial]
pi = 0.3 -0.2 0.5
l = 0.0 0.1 0.98

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


def test_criterion_7_matching_control_transport():
    start = time.perf_counter()
    cfg = cfgmod.parse_config(TRANSPORT)
    _, _, target_sys, to_target = cfgmod.build_matching(cfg)
    engaged_sys = cfgmod.build_system(cfg)
    free_sys = cfgmod.base_system(cfg)
    p0 = cfgmod.build_initial(cfg)
    q0 = to_target(p0)
    dt, t_final = cfg.run["dt"], cfg.run["t_final"]
    target = run(flat_dynamical_field(target_sys, q0.layout), q0, dt,
                 t_final)
    engaged = run(flat_dynamical_field(engaged_sys, p0.layout), p0, dt,
                  t_final)
    free = run(flat_dynamical_field(free_sys, p0.layout), p0, dt, t_final)
    on = float(np.max(np.abs(engaged.states - target.states)))
    off = float(np.max(np.abs(free.states - target.states)))
    elapsed = time.perf_counter() - start
    ok = on <= 1e-6 and off > 1e-2 and elapsed < 10.0
    check("7 equivalence transport", ok,
          f"engaged deviation {on:.1e} <= 1e-6, disengaged {off:.1e} > "
          f"1e-2 over T = 1 at dt = 1e-3, {elapsed:.1f} s < 10 s")


def test_criterion_8_pullback_matches_exterior_derivative():
    defects = {
        "exact": hj.pullback_identity_defect(
            hj.rotor_quadratic_section(), n_samples=200, seed=8),
        "constant body": hj.pullback_identity_defect(
            hj.constant_body_section(
                lie.coalgebra(lie.SO3, (0.4, -0.2, 0.7)),
                (0.1, 0.0, -0.3)),
            n_samples=200, seed=9),
        "constant top": hj.pullback_identity_defect(
            hj.constant_body_section(
                lie.coalgebra(lie.SE3, (0.2, -0.1, 0.4), (0.0, 0.0, 1.0)),
                (0.05, -0.3)),
            n_samples=200, seed=10),
    }
    planted = hj.closedness_defect(hj.shear_section(lie.SO3, 3),
                                   n_samples=50, seed=11)
    worst = max(defects.values())
    ok = worst <= 1e-5 and abs(planted - 1.0) <= 0.1
    check("8 pullback identity", ok,
          f"max two-form defect {worst:.1e} <= 1e-5 over 200 tangent "
          f"pairs per family; planted non-closed section reports "
          f"{planted:.3f} vs analytic 1.0 within 10%")


SIMULATE = """\
[system]
kind = rigid_body_rotors

[params]
ibar = 1.0 2.0 3.0
j = 0.5 0.4 0.3

[initial]
pi = 1.0 0.5 -0.2
l = 0.1 0.2 0.3

[run]
dt = 0.01
t_final = 1.0
"""

HJ_CHECK = SIMULATE + """
[gamma]
kind = exact_dW
name = rotor_quadratic
samples = 15
"""


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_criterion_9_cli_outputs_are_reproducible(tmp_path):
    sim = tmp_path / "simulate.ini"
    sim.write_text(SIMULATE)
    probe = tmp_path / "hj.ini"
    probe.write_text(HJ_CHECK)
    demo = tmp_path / "demo.ini"
    demo.write_text(TRANSPORT.replace("dt = 0.001", "dt = 0.01"))
    commands = {
        "simulate": ["simulate", "--config", str(sim)],
        "hj-check": ["hj-check", "--config", str(probe)],
        "equivalence-demo": ["equivalence-demo", "--config", str(demo)],
        "bracket-verify": ["bracket-verify", "--seed", "0"],
    }
    bad_exit, mismatched = [], []
    for name, argv in commands.items():
        trees = []
        for tag in ("first", "second"):
            out = tmp_path / f"{name}-{tag}"
            code = cli_main(argv + ["--out", str(out), "--quiet"])
            if code != 0:
                bad_exit.append(f"{name} ({tag}) exit {code}")
            trees.append(_tree_bytes(out))
        if trees[0] != trees[1]:
            mismatched.append(name)
    ok = not bad_exit and not mismatched
    check("9 determinism", ok,
          "4 commands x 2 seeded runs, all exit 0, byte-identical outputs"
          if ok else f"exit problems {bad_exit}, mismatched {mismatched}")
