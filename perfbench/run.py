"""Benchmark of the four ``gyrostat`` subcommands.

    python3 perfbench/run.py --workload spin --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: it imports the package from the
``src/`` directory beside its own and writes only under
``.perfbench_out/`` at the checkout root. Each invocation is one fresh
single-threaded process (BLAS pinned to one thread) that runs one
workload's command in-process through ``gyrostat.cli.main`` as a closed
loop: the next command starts when the previous one returns.

A run sets up (imports the package, draws the inputs from ``--seed``,
runs one warm-up command) and times warm commands with tracing off for
``--seconds``. With ``--trace 1`` it then runs one command under
``tracemalloc`` and one under the span recorder of ``spans.py``, and
writes the spans to ``.perfbench_out/<workload>/spans.csv``. Every
command's output is checked (``workloads.check``) and must be
byte-identical to the warm-up command's; a failed check, a nonzero exit
or an exception counts as a failed command.

The end-to-end timings are in reference units: each command's wall
(or CPU) time over the median time of the reference calls
(``reference.py``) made just before and just after it, and the median
of that ratio over the run's warm commands. The raw medians in seconds
and the number of commands are printed on an ``info`` line.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines
before it print the same metrics by name with their units.
"""

import os

# One BLAS thread; this must happen before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import (Patches, Recorder, package_modules,  # noqa: E402
                   summarize, write_spans)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("spin", "transport", "probe", "axioms")

# The import is timed in this process and in fresh child processes;
# setup_s takes the median of these samples.
IMPORT_SAMPLES = 3
# Reference calls in the block before and after each timed command.
REFERENCE_CALLS = 3
IMPORT_PROBE = ("import sys, time\n"
                "start = time.perf_counter()\n"
                "sys.path.insert(0, 'src')\n"
                "import gyrostat.cli\n"
                "print(time.perf_counter() - start)\n")


class Runner:
    """Runs one workload command and checks what it wrote."""

    def __init__(self, cli, check, name: str, argv: list, out: Path):
        self.cli = cli
        self.check = check
        self.name = name
        self.argv = argv + ["--out", str(out), "--quiet"]
        self.out = out
        self.first_artifacts = None
        self.attempted = 0
        self.failed = 0

    def once(self):
        """Run the command once; return its wall and CPU seconds."""
        shutil.rmtree(self.out, ignore_errors=True)
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = self.cli.main(self.argv)
        except Exception:  # a crashing command is a counted failure
            traceback.print_exc()
            code = None
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        self.attempted += 1
        reason = (f"exit code {code}" if code != 0
                  else self.check(self.name, self.out))
        if reason is None:
            artifacts = {p.name: p.read_bytes()
                         for p in sorted(self.out.iterdir())}
            if self.first_artifacts is None:
                self.first_artifacts = artifacts
            elif artifacts != self.first_artifacts:
                reason = "artifacts differ from the first command's"
        if reason is not None:
            self.failed += 1
            print(f"perfbench: {self.name} command failed: {reason}",
                  file=sys.stderr)
        return wall, cpu


def in_reference_units(times: list, blocks: list, column: int) -> float:
    """Median over commands of the command's time over the median time
    of the reference calls just before and just after it; ``column``
    picks wall (0) or CPU (1) seconds."""
    return statistics.median(
        t / statistics.median(r[column] for r in blocks[i] + blocks[i + 1])
        for i, t in enumerate(times))


def child_import_seconds() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def memory_pass(runner: Runner, modules: dict) -> dict:
    """One command under tracemalloc: its peak, and the traced memory
    each ``integrate.run`` result still holds right after it returns."""
    retained = {"bytes": 0, "states": 0}
    original = modules["integrate"].run

    def measured_run(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        traj = original(*args, **kwargs)
        retained["bytes"] += tracemalloc.get_traced_memory()[0] - before
        retained["states"] += len(traj.states)
        return traj

    patches = Patches()
    patches.replace_function(modules, original, measured_run)
    tracemalloc.start()
    try:
        runner.once()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        patches.restore()
    per_state = (retained["bytes"] / retained["states"]
                 if retained["states"] else 0.0)
    return {"peak_alloc_mb": peak / 1e6, "retained_bytes_per_state": per_state}


def traced_pass(runner: Runner, work: Path):
    recorder = Recorder()
    recorder.command = 1
    recorder.install()
    try:
        runner.once()
    finally:
        recorder.uninstall()
    write_spans(work / "spans.csv", recorder.spans)
    return summarize(recorder.spans, recorder.counts)


def layer_metrics(summary: dict, memory: dict, untraced_s: float) -> dict:
    """The per-layer metrics of the one traced command."""
    calls, counts = summary["calls"], summary["counts"]
    wall = summary["wall_s"]
    steps = calls.get("integrate.rk4_step", 0.0)

    def share(seconds: float) -> float:
        return 100.0 * seconds / wall

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def n(name: str):
        return calls.get(name, 0.0), "count"

    def self_share(layer: str):
        return share(summary["self_s"].get(layer, 0.0)), "%"

    return {
        "integrate.rk4_step.calls": n("integrate.rk4_step"),
        "integrate.field_evals_per_step": (ratio(summary["children"].get(
            "integrate.rk4_step>controlled.dynamical_field", 0.0), steps),
            "evals/step"),
        "integrate.invariant_evals_per_state": (ratio(
            counts.get("integrate.invariant_evals", 0.0),
            counts.get("integrate.tracked_state_values", 0.0)),
            "evals/state"),
        "integrate.retained_bytes_per_state":
            (memory["retained_bytes_per_state"], "B/state"),
        "peak_alloc_mb": (memory["peak_alloc_mb"], "MB"),
        "integrate.self_share": self_share("integrate"),
        "controlled.dynamical_field.calls": n("controlled.dynamical_field"),
        "controlled.control.calls": n("controlled.control"),
        "controlled.self_share": self_share("controlled"),
        "poisson.points_built": (counts.get("poisson.points_built", 0.0),
                                 "count"),
        "poisson.tangents_built": (counts.get("poisson.tangents_built", 0.0),
                                   "count"),
        "poisson.hamiltonian_field.calls": n("poisson.hamiltonian_field"),
        "poisson.eval_batch.calls": n("poisson.eval_batch"),
        "poisson.eval_batch.rows": (counts.get("poisson.eval_batch.rows",
                                               0.0), "count"),
        "poisson.self_share": self_share("poisson"),
        "systems.h_eval.calls": n("systems.h_eval"),
        "systems.h_grad.calls": n("systems.h_grad"),
        "systems.self_share": self_share("systems"),
        "lie.calls": (sum(v for k, v in calls.items()
                          if k.startswith("lie.")), "count"),
        "lie.self_share": self_share("lie"),
        "reduction.full_dynamical_field.calls":
            n("reduction.full_dynamical_field"),
        "reduction.momentum_map.calls": n("reduction.momentum_map"),
        "reduction.self_share": self_share("reduction"),
        "hamilton_jacobi.samples": (summary["children"].get(
            "hamilton_jacobi.theorem_equivalence_probe>"
            "hamilton_jacobi.hj_residual", 0.0), "count"),
        "hamilton_jacobi.fiber_derivative.calls":
            n("hamilton_jacobi.fiber_derivative"),
        "hamilton_jacobi.self_share": self_share("hamilton_jacobi"),
        "config.self_share": self_share("config"),
        "config.sample_configurations_share": (share(summary[
            "inclusive_s"].get("config.sample_configurations", 0.0)), "%"),
        "cli.self_share": self_share("cli"),
        "trace.overhead_ratio": (wall / untraced_s, "ratio"),
    }


def per_call_us(summary: dict, cmd_s: float) -> dict:
    """Per-call figures to set beside the ROADMAP baseline table: span
    durations include the recorder's own cost; the last is untraced."""
    calls, inclusive = summary["calls"], summary["inclusive_s"]

    def us(name: str, per: float):
        return 1e6 * inclusive.get(name, 0.0) / per if per else 0.0

    steps = calls.get("integrate.rk4_step", 0.0)
    rows = steps + 1 if calls.get("cli.trajectory_csv") else 0.0
    return {
        "traced_field_eval_us": us("controlled.dynamical_field",
                                   calls.get("controlled.dynamical_field")),
        "traced_rk4_step_us": us("integrate.rk4_step", steps),
        "traced_csv_row_us": us("cli.trajectory_csv", rows),
        "untraced_command_us_per_step": 1e6 * cmd_s / steps if steps else 0.0,
    }


def report(name: str, metrics: dict, correct: bool, attempted: int,
           failed: int):
    for key, (value, unit) in metrics.items():
        print(f"{name}  {key} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()}}))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gyrostat" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'gyrostat'}",
              file=sys.stderr)
        return 2
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # setup: import, draw the inputs, one warm-up command
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from gyrostat import cli
    imported = time.perf_counter()
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: gyrostat imported from {cli.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        return 2
    import reference
    import workloads

    runner = Runner(cli, workloads.check, args.workload,
                    workloads.prepare(args.workload, args.seed, work),
                    work / "out")
    runner.once()
    setup_s = time.perf_counter() - imported
    imports = [imported - started]
    imports += [child_import_seconds() for _ in range(IMPORT_SAMPLES - 1)]
    setup_s += statistics.median(imports)

    # closed loop, with a block of reference calls before and after
    # each command
    walls, cpus = [], []
    blocks = [[reference.measure() for _ in range(REFERENCE_CALLS)]]
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        wall, cpu = runner.once()
        walls.append(wall)
        cpus.append(cpu)
        blocks.append([reference.measure() for _ in range(REFERENCE_CALLS)])
    cmd_s = statistics.median(walls)
    print(f"{args.workload}  info timed_commands = {len(walls)}, "
          f"cmd_s_p50 = {cmd_s!r} s, "
          f"cmd_cpu_s_p50 = {statistics.median(cpus)!r} s")

    if args.trace:
        memory = memory_pass(runner, package_modules())
        summary = traced_pass(runner, work)
        for key, value in per_call_us(summary, cmd_s).items():
            if value:
                print(f"{args.workload}  info {key} = {value!r} us")
        metrics = layer_metrics(summary, memory, cmd_s)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "cmd_ref_p50": (in_reference_units(walls, blocks, 0), "ref"),
            "cmd_cpu_ref_p50": (in_reference_units(cpus, blocks, 1), "ref"),
        }
    print(f"{args.workload}  info error_rate = "
          f"{runner.failed / runner.attempted!r}")
    report(args.workload, metrics, runner.failed == 0, runner.attempted,
           runner.failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
