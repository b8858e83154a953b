"""Benchmark of the heckezero CLI.

    python3 perfbench/run.py --workload {center,brute,construct,all} \\
        --seed N --seconds S --trace {0,1}

Closed loop with a single client: a workload is a fixed list of CLI
commands (see workloads.py).  Each command runs as a fresh
``python -m heckezero.cli`` process, one after another, so every run pays for
interpreter start-up and cold caches the way a researcher does.  The seed
shuffles the command order and sets PYTHONHASHSEED; the inputs are the
paper's fixed degrees, so every seed does the same work.  The list is
repeated until `--seconds` have passed.

The speed of a small shared host drifts by up to 2x within a minute, in CPU
time as well as in wall time, so raw times of one run say more about the
neighbours than about the program.  The harness therefore times a fixed
pure-Python calibration loop (`calibrate`) in its own process before and
after every command, and rescales each command's time by the machine speed
the two loops saw: ``time * CAL_REF_S / mean(loop before, loop after)``.
The result is the time the command would take on the reference host, where
the loop takes CAL_REF_S.  The end-to-end metrics are

    wall_ref_s   wall seconds for the command list, rescaled: the sum over
                 commands of the median over passes
    cpu_ref_s    user + system CPU seconds of its processes (os.wait4),
                 rescaled by the loop's CPU time, summed the same way
    setup_s      median rescaled wall time of a fresh interpreter that only
                 imports heckezero.cli, over SETUP_PER_PASS samples a pass
    peak_rss_mb  largest child max-RSS in the list, median over passes

The raw medians (wall_s, cpu_s, setup_raw_s) and the loop times go to the run
record and the summary table, not to the result line.

A command fails on a nonzero exit, a timeout or a failed output check;
error_rate = failed / attempted is printed with the metrics.  With
``--trace 1`` one more pass runs every command under tracer.py, and the
per-layer metrics come from its spans; end-to-end metrics always come from
untraced passes.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the full record of the run, with its
metadata and per-command exit codes, goes to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS, CheckFailed, Command, Workload

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heckezero"
WORK = ROOT / ".perfbench"
TRACER = Path(tracer.__file__).resolve()

#: A run must exit within 180 s; commands still pending at this point fail.
RUN_LIMIT_S = 170.0
#: Import-only interpreters timed in each pass, for setup_s.
SETUP_PER_PASS = 3
#: Rounds of the calibration loop, and the loop's wall (= CPU) seconds on the
#: reference host (Python 3.11.7, 2 shared x86_64 vCPUs, quiet).
CAL_ROUNDS = 60
CAL_REF_S = 0.10

END_TO_END = (("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

_CAL_WORDS = tuple(itertools.permutations(range(6)))
_CAL_CHECK = 324000


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python loop of the kind the
    program runs (tuples, generator expressions, dict updates), with the
    garbage collector off."""
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        acc: dict[tuple, int] = {}
        for _ in range(CAL_ROUNDS):
            for w in _CAL_WORDS:
                inv = sum(1 for i in range(6) for j in range(i + 1, 6)
                          if w[i] > w[j])
                key = (*sorted(w[:3]), inv)
                acc[key] = acc.get(key, 0) + inv
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    finally:
        gc.enable()
    if sum(acc.values()) != _CAL_CHECK:
        raise SystemExit("error: the calibration loop computed a wrong sum")
    return wall, cpu


@dataclass
class Outcome:
    """One finished command."""

    argv: list[str]
    exit_code: int | None
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout_bytes: int
    failure: str | None
    layers: dict | None = None
    #: Calibration loop (wall s, CPU s) just before and just after.
    cal_before: tuple[float, float] | None = None
    cal_after: tuple[float, float] | None = None

    def rescaled(self) -> tuple[float, float]:
        """(wall, CPU) seconds at the reference host's speed."""
        wall = (self.cal_before[0] + self.cal_after[0]) / 2
        cpu = (self.cal_before[1] + self.cal_after[1]) / 2
        return (self.wall_s * CAL_REF_S / wall, self.cpu_s * CAL_REF_S / cpu)


def child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def spawn(args: list[str], env: dict, out_path: Path, timeout: float):
    """Run one process to completion with stdout to `out_path`.  Returns
    (exit code, wall s, cpu s, max RSS MB); the process is killed after
    `timeout` seconds."""
    with open(out_path, "wb") as out, open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


def run_command(command: Command, env: dict, slot: int, deadline: float,
                traced: bool) -> Outcome:
    argv = list(command.argv)
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        return Outcome(argv, None, 0.0, 0.0, 0.0, 0, "not started: run time limit")
    out_path = WORK / f"out-{slot}.json"
    spans_path = WORK / f"spans-{slot}.bin"
    if traced:
        spans_path.unlink(missing_ok=True)
        args = [sys.executable, str(TRACER), str(spans_path), *argv]
    else:
        args = [sys.executable, "-m", "heckezero.cli", *argv]
    code, wall, cpu, rss = spawn(args, env, out_path, timeout)
    failure = None
    if wall >= timeout:
        failure = f"timed out after {timeout:.1f} s"
    elif code != 0:
        stderr = (WORK / "stderr.txt").read_text(errors="replace").strip()
        failure = f"exit code {code}: {stderr.splitlines()[-1] if stderr else ''}"
    else:
        try:
            with open(out_path) as fh:
                command.check(json.load(fh))
        except CheckFailed as exc:
            failure = str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            failure = f"malformed output: {exc!r}"
    layers = None
    if traced and spans_path.is_file():
        layers = tracer.summarize(str(spans_path))
    return Outcome(argv, code, wall, cpu, rss, out_path.stat().st_size,
                   failure, layers)


def run_pass(commands, env: dict, deadline: float, traced: bool) -> list[Outcome]:
    """Run the commands in order.  An untraced pass runs the calibration loop
    before the first command and after each one."""
    if traced:
        return [run_command(c, env, slot, deadline, traced)
                for slot, c in enumerate(commands)]
    outcomes = []
    cal = calibrate()
    for slot, command in enumerate(commands):
        outcome = run_command(command, env, slot, deadline, traced)
        outcome.cal_before, cal = cal, calibrate()
        outcome.cal_after = cal
        outcomes.append(outcome)
    return outcomes


def import_only(env: dict, deadline: float) -> float:
    """Wall seconds of a fresh interpreter that only imports heckezero.cli."""
    args = [sys.executable, "-c", "import heckezero.cli"]
    code, wall, _, _ = spawn(args, env, WORK / "setup.txt",
                             deadline - time.perf_counter())
    if code != 0:
        raise SystemExit(f"error: `import heckezero.cli` exited {code}; "
                         f"see {WORK / 'stderr.txt'}")
    return wall


def measure_setup(env: dict, deadline: float) -> list[float]:
    """SETUP_PER_PASS import-only interpreters between two calibration loops;
    returns their rescaled wall seconds."""
    before = calibrate()
    walls = [import_only(env, deadline) for _ in range(SETUP_PER_PASS)]
    after = calibrate()
    scale = CAL_REF_S / ((before[0] + after[0]) / 2)
    return [w * scale for w in walls]


def layer_metrics(traced: list[Outcome], untraced_wall: float) -> dict:
    values: dict[str, float] = {}
    for outcome in traced:
        for key, value in (outcome.layers or {}).items():
            values[key] = values.get(key, 0) + value
    values["cli.main.stdout_bytes"] = sum(o.stdout_bytes for o in traced)
    calls = values.get("stair_classes.member_sigma_alpha.calls", 0)
    accepted = values.get("stair_classes.member_sigma_alpha.accepted", 0)
    values["stair_classes.member_sigma_alpha.accept_ratio"] = (
        accepted / calls if calls else 0.0)
    values["trace.overhead_s"] = sum(o.wall_s for o in traced) - untraced_wall
    metrics = {}
    for name, unit in tracer.PER_LAYER:
        value = values.get(name, 0)
        if unit in ("count", "bytes"):
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Measure one workload; returns the full record of the run."""
    WORK.mkdir(exist_ok=True)
    env = child_env(seed)
    rng = random.Random(seed)
    import_only(env, deadline)  # writes the bytecode cache; not timed
    setup: list[float] = []
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        order = rng.sample(workload.commands, len(workload.commands))
        passes.append(run_pass(order, env, deadline, traced=False))
        setup += measure_setup(env, deadline)
    outcomes = [o for p in passes for o in p]

    def per_command_sum(value) -> float:
        """Sum over the commands of the median over passes of `value`."""
        return sum(statistics.median(value(o) for o in outcomes
                                     if o.argv == list(c.argv))
                   for c in workload.commands)

    walls = [sum(o.wall_s for o in p) for p in passes]
    end_to_end = {
        "wall_ref_s": per_command_sum(lambda o: o.rescaled()[0]),
        "cpu_ref_s": per_command_sum(lambda o: o.rescaled()[1]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p) for p in passes),
    }
    raw = {
        "wall_s": per_command_sum(lambda o: o.wall_s),
        "cpu_s": per_command_sum(lambda o: o.cpu_s),
        "calibration_s": statistics.median(
            o.cal_before[0] for o in outcomes),
    }
    if trace:
        order = rng.sample(workload.commands, len(workload.commands))
        traced = run_pass(order, env, deadline, traced=True)
        metrics = layer_metrics(traced, raw["wall_s"])
        outcomes += traced
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}
    failed = sum(o.failure is not None for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
        "passes": len(passes),
        "raw": raw,
        "pass_wall_s": walls,
        "setup_samples_s": setup,
        "commands": [asdict(o) for o in outcomes],
    }


def git_commit() -> str | None:
    """HEAD of the checkout, if it is a git repository; never looks above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def print_summary(name: str, record: dict) -> None:
    for metric, entry in record["metrics"].items():
        print(f"{name:10s} {metric:48s} {entry['value']:>14.6g} {entry['unit']}")
    for metric, value in record["raw"].items():
        print(f"{name:10s} {metric + ' (raw median)':48s} {value:>14.6g} s")
    rate = record["failed"] / record["attempted"]
    print(f"{name:10s} {'error_rate':48s} {rate:>14.6g} ratio "
          f"({record['failed']} of {record['attempted']} commands failed, "
          f"{record['passes']} untraced passes)")
    for outcome in record["commands"]:
        if outcome["failure"]:
            print(f"{name:10s} FAILED {' '.join(outcome['argv'])}: "
                  f"{outcome['failure']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no heckezero sources at {PACKAGE}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    for name in names:
        deadline = time.perf_counter() + RUN_LIMIT_S
        records[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace), deadline)
        print_summary(name, records[name])

    result_path = WORK / (f"result-{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    result_path.write_text(json.dumps(
        {"meta": metadata(args), "workloads": records}, indent=1) + "\n")
    print(f"full record: {result_path.relative_to(ROOT)}")

    if len(names) == 1:
        metrics = records[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry
                   for name, record in records.items()
                   for metric, entry in record["metrics"].items()}
    failed = sum(r["failed"] for r in records.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
