"""Command-line scenario runner for the reduced rotor systems.

Subcommands
-----------
simulate          integrate the configured system and write
                  ``trajectory.csv`` plus ``drift_summary.txt``; exit 0
                  iff every tracked invariant stays within its drift bound
hj-check          evaluate the configured one-form section and write
                  ``hj_report.txt`` (per-sample table) plus
                  ``hj_report.kv`` (flat key-value aggregate); exit 0 iff
                  no sample is classified INCONSISTENT
equivalence-demo  integrate the matching-controlled system against its
                  target and write ``equivalence.txt``; exit 0 iff the
                  engaged deviation is within the equivalence tolerance
bracket-verify    run the bracket axiom suites and write
                  ``bracket_report.txt``; exit 0 iff every suite passes

Exit codes: 0 success; 1 a runtime check failed (drift bound, deviation,
inconsistent sample, axiom suite, blow-up); 2 bad configuration or
arguments; 3 the section left its momentum level set; 4 the section
failed the closedness gate.

``trajectory.csv`` columns, in order: ``t``, the state components
``pi_1 pi_2 pi_3`` (``gamma_1 gamma_2 gamma_3`` for the heavy-top
kinds), ``theta_1..k`` and ``l_1..k`` for the rotor slots the state
carries, then one column per tracked invariant: ``energy``, then the
Casimirs (``pi_sq``, or ``pi_dot_gamma`` and ``gamma_sq``). Numbers are
written with shortest round-trip precision.

Every command is a deterministic function of the scenario file and the
seed, so reruns are byte-identical; output files are written line by
line to a temporary name and renamed into place.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import hamilton_jacobi as hj
from . import lie
from .controlled import flat_dynamical_field
from .integrate import run, standard_invariants
from .poisson import AXIOM_BOUNDS, axiom_suite_passes, bracket_axiom_suite

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_MEMBERSHIP = 3
EXIT_GATE = 4

CSV_BLOCK = 1024  # trajectory.csv rows formatted together

SUITES = ("so3_lie_poisson", "so3_product", "se3_product")
AXIOMS = ("antisymmetry", "leibniz", "jacobi", "casimir")


def _write_lines(path: Path, lines):
    """Write each string of the iterable ``lines`` and a newline, as it
    comes, to a temporary name, then rename it to ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    os.replace(tmp, path)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise cfgmod.ConfigError(f"--out {out}: {exc.strerror}") from None
    return out


def _effective_seed(args, cfg: cfgmod.ScenarioConfig | None) -> int:
    if args.seed is not None:
        return args.seed
    return cfg.run["seed"] if cfg is not None else 0


def _say(args, msg: str):
    if not args.quiet:
        print(msg)


def _complain(msg: str):
    print(msg, file=_sys.stderr)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _state_columns(layout) -> list:
    names = ["pi_1", "pi_2", "pi_3"]
    if layout.kind == lie.SE3:
        names += ["gamma_1", "gamma_2", "gamma_3"]
    names += [f"theta_{i}" for i in range(1, layout.n_theta + 1)]
    names += [f"l_{i}" for i in range(1, layout.n_l + 1)]
    return names


def _column_text(col: np.ndarray) -> list:
    """The shortest round-trip repr of each float64 of ``col``, each
    distinct value formatted once. Values are told apart by their bit
    pattern, so 0.0 and -0.0 keep their own text."""
    keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
    if len(keys) == len(col):
        return list(map(repr, col.tolist()))
    text = list(map(repr, keys.view(np.float64).tolist()))
    return [text[i] for i in inverse.tolist()]


def _trajectory_csv(path: Path, traj):
    """Stream the trajectory's times i * dt, states and invariant series
    to ``path``, one row per state, built a block of at most
    ``CSV_BLOCK`` rows at a time, column by column: within a column
    block each distinct value is formatted once, still with shortest
    round-trip ``repr``."""
    dt = traj.dt
    series = [np.asarray(s, dtype=float) for s in traj.series.values()]

    def rows():
        yield ",".join(["t"] + _state_columns(traj.layout) + list(traj.series))
        for lo in range(0, len(traj.states), CSV_BLOCK):
            hi = min(lo + CSV_BLOCK, len(traj.states))
            columns = [map(repr, map(dt.__rmul__, range(lo, hi)))]
            columns += map(_column_text, traj.states[lo:hi].T)
            columns += (_column_text(s[lo:hi]) for s in series)
            yield from map(",".join, zip(*columns))

    _write_lines(path, rows())


def _drift_bound(name: str, tolerances: dict) -> float:
    return tolerances["energy_drift"] if name == "energy" \
        else tolerances["casimir_drift"]


def cmd_simulate(args) -> int:
    cfg = cfgmod.load_config(args.config)
    out = _out_dir(args)
    system = cfgmod.build_system(cfg)
    p0 = cfgmod.build_initial(cfg)
    invariants = standard_invariants(system.hamiltonian, system.kind)
    try:
        traj = run(flat_dynamical_field(system, p0.layout), p0,
                   cfg.run["dt"], cfg.run["t_final"], invariants)
    except ValueError as exc:
        _complain(f"simulation failed: {exc}")
        return EXIT_RUNTIME
    _trajectory_csv(out / "trajectory.csv", traj)

    ok = True
    lines = [f"run: dt = {cfg.run['dt']!r}, t_final = "
             f"{cfg.run['t_final']!r}, steps = {len(traj.states) - 1}"]
    for name in invariants:
        worst = traj.max_drift(name)
        bound = _drift_bound(name, cfg.tolerances)
        passed = worst <= bound
        ok = ok and passed
        lines.append(f"{name}: max relative drift {worst:.6e} "
                     f"(bound {bound:g}) {'pass' if passed else 'fail'}")
    lines.append(f"overall: {'pass' if ok else 'fail'}")
    _write_lines(out / "drift_summary.txt", lines)
    _say(args, f"wrote {out / 'trajectory.csv'} and "
               f"{out / 'drift_summary.txt'}")
    if not ok:
        _complain("drift bounds violated; see drift_summary.txt")
    return EXIT_OK if ok else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# hj-check
# ---------------------------------------------------------------------------

def _hj_failure_reports(out: Path, section, mu, verdict: str, message: str,
                        defect: float):
    _write_lines(out / "hj_report.txt",
                 [f"section family: {section.family}",
                  f"momentum level: {_vec_text(mu)}",
                  f"verdict: {verdict}",
                  f"error: {message}"])
    _write_lines(out / "hj_report.kv",
                 [f"closedness_defect = {float(defect)!r}",
                  f"verdict = {verdict}",
                  f"error = {message}"])


def _vec_text(arr) -> str:
    return " ".join(repr(float(v)) for v in arr)


def cmd_hj_check(args) -> int:
    cfg = cfgmod.load_config(args.config)
    if cfg.control["kind"] == "matching":
        raise cfgmod.ConfigError("[control] kind: the residual check "
                                 "supports none or constant controls")
    out = _out_dir(args)
    section, mu = cfgmod.build_section(cfg)
    system = cfgmod.build_system(cfg)
    rng = np.random.default_rng(_effective_seed(args, cfg))
    try:
        # unnamed, the samples are freed before the report is formatted
        probe = hj.theorem_equivalence_probe(
            system, section, cfgmod.sample_configurations(cfg, mu, rng),
            mu=mu)
    except hj.GateRejection as exc:
        _hj_failure_reports(out, section, mu, "GATE_REJECTED", str(exc),
                            exc.closedness_defect)
        _complain(f"hj-check rejected: {exc}")
        return EXIT_GATE
    except hj.MembershipError as exc:
        _hj_failure_reports(out, section, mu, "MEMBERSHIP_VIOLATION",
                            str(exc), exc.closedness_defect)
        _complain(f"hj-check rejected: {exc}")
        return EXIT_MEMBERSHIP

    worst_rel = int(np.argmax(probe.relatedness))
    worst_hj = int(np.argmax(probe.hj))
    header = [f"section family: {section.family}",
              f"momentum level: {_vec_text(mu)}",
              f"samples: {len(probe.labels)}",
              f"closedness defect: {probe.gate_defect:.6e} "
              f"(gate {hj.GATE_TOL:g})",
              "",
              f"{'idx':>5}  {'relatedness':>13}  {'hj residual':>13}  "
              f"{'|X_gamma|':>11}  class"]
    rows = map("%5d  %13.6e  %13.6e  %11.4e  %s".__mod__,
               zip(range(len(probe.labels)), probe.relatedness.tolist(),
                   probe.hj.tolist(), probe.x_norm.tolist(), probe.labels))
    _write_lines(out / "hj_report.txt",
                 chain(header, rows, ["", f"verdict: {probe.verdict}"]))

    # float(...)!r: a NumPy scalar's repr reads np.float64(...)
    _write_lines(out / "hj_report.kv", [
        f"closedness_defect = {float(probe.gate_defect)!r}",
        f"relatedness_residual = {float(probe.relatedness[worst_rel])!r}",
        f"hj_residual = {float(probe.hj[worst_hj])!r}",
        f"sample_count = {len(probe.labels)}",
        f"worst_relatedness_index = {worst_rel}",
        f"worst_hj_index = {worst_hj}",
        f"verdict = {probe.verdict}"])

    _say(args, f"wrote {out / 'hj_report.txt'} and {out / 'hj_report.kv'}")
    _say(args, f"verdict: {probe.verdict}")
    inconsistent = "INCONSISTENT" in probe.labels
    if inconsistent:
        _complain("residuals disagree on at least one sample; "
                  "see hj_report.txt")
    return EXIT_RUNTIME if inconsistent else EXIT_OK


# ---------------------------------------------------------------------------
# equivalence-demo
# ---------------------------------------------------------------------------

def cmd_equivalence_demo(args) -> int:
    cfg = cfgmod.load_config(args.config)
    out = _out_dir(args)
    free_system, control, target_system, to_target = \
        cfgmod.build_matching(cfg)
    engaged_system = replace(free_system, control=control)
    p0 = cfgmod.build_initial(cfg)
    q0 = to_target(p0)
    dt, t_final = cfg.run["dt"], cfg.run["t_final"]
    try:
        target_traj = run(flat_dynamical_field(target_system, q0.layout),
                          q0, dt, t_final)
        engaged_traj = run(flat_dynamical_field(engaged_system, p0.layout),
                           p0, dt, t_final)
        free_traj = run(flat_dynamical_field(free_system, p0.layout),
                        p0, dt, t_final)
    except ValueError as exc:
        _complain(f"equivalence demo failed: {exc}")
        return EXIT_RUNTIME

    engaged = float(np.max(np.abs(engaged_traj.states - target_traj.states)))
    disengaged = float(np.max(np.abs(free_traj.states - target_traj.states)))
    tol = cfg.tolerances["equivalence"]
    ok = engaged <= tol
    _write_lines(out / "equivalence.txt", [
        f"target = {cfg.control['target']}",
        f"dt = {dt!r}",
        f"t_final = {t_final!r}",
        f"engaged_deviation = {engaged!r}",
        f"disengaged_deviation = {disengaged!r}",
        f"tolerance = {tol!r}",
        f"engaged_within_tolerance = {'yes' if ok else 'no'}"])
    _say(args, f"wrote {out / 'equivalence.txt'}")
    _say(args, f"engaged deviation {engaged:.6e}, disengaged "
               f"{disengaged:.6e} (tolerance {tol:g})")
    if not ok:
        _complain(f"matched trajectories deviate by {engaged:.6e} "
                  f"(tolerance {tol:g})")
    return EXIT_OK if ok else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# bracket-verify
# ---------------------------------------------------------------------------

def cmd_bracket_verify(args) -> int:
    cfg = cfgmod.load_config(args.config) if args.config else None
    out = _out_dir(args)
    seed = _effective_seed(args, cfg)
    lines = []
    all_ok = True
    for name in SUITES:
        report = bracket_axiom_suite(name, n_instances=1000, seed=seed)
        passed = axiom_suite_passes(report)
        all_ok = all_ok and passed
        lines.append(f"suite {name}: instances = {report['instances']}, "
                     f"seed = {report['seed']}")
        for axiom in AXIOMS:
            bound = AXIOM_BOUNDS[f"max_{axiom}"]
            lines.append(f"  {axiom}: max {report[f'max_{axiom}']:.6e} "
                         f"(bound {bound:g}, worst sample "
                         f"{report[f'worst_{axiom}_sample']})")
        lines.append(f"  result: {'pass' if passed else 'fail'}")
    lines.append(f"overall: {'pass' if all_ok else 'fail'}")
    _write_lines(out / "bracket_report.txt", lines)
    _say(args, f"wrote {out / 'bracket_report.txt'}")
    if not all_ok:
        _complain("bracket axiom suite failed; see bracket_report.txt")
    return EXIT_OK if all_ok else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_EPILOG = """\
trajectory.csv column order: t, then the state components
pi_1 pi_2 pi_3 [gamma_1 gamma_2 gamma_3] theta_1..k l_1..k
(slots the state carries), then the invariant columns: energy, then
pi_sq (rigid body) or pi_dot_gamma and gamma_sq (heavy-top kinds).

exit codes: 0 success; 1 runtime check failed; 2 bad configuration;
3 momentum-level membership violation; 4 closedness gate rejection.
"""


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _add_common(sp, config_required: bool = True, seeded: bool = False):
    sp.add_argument("--config", required=config_required, default=None,
                    help="scenario file (INI; see the config module)")
    sp.add_argument("--out", default="./out",
                    help="output directory (default ./out)")
    if seeded:
        sp.add_argument("--seed", type=_seed, default=None,
                        help="seed of the random draws; overrides [run] seed")
    sp.add_argument("--quiet", action="store_true",
                    help="suppress success chatter on stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gyrostat",
        description="Scenario runner for reduced rigid-body and "
                    "heavy-top rotor systems.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate",
                        help="integrate the configured system and check "
                             "invariant drift",
                        epilog=_EPILOG,
                        formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("hj-check",
                        help="closedness gate plus relatedness and "
                             "Hamilton-Jacobi residuals for the "
                             "configured section")
    _add_common(sp, seeded=True)
    sp.set_defaults(func=cmd_hj_check)

    sp = sub.add_parser("equivalence-demo",
                        help="run the matching control against its "
                             "target and report trajectory deviation")
    _add_common(sp)
    sp.set_defaults(func=cmd_equivalence_demo)

    sp = sub.add_parser("bracket-verify",
                        help="run the Poisson bracket axiom suites")
    _add_common(sp, config_required=False, seeded=True)
    sp.set_defaults(func=cmd_bracket_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except cfgmod.ConfigError as exc:
        _complain(f"config error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
