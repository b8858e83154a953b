"""Self-test of the benchmark harness on a low-degree smoke workload.

    python3 perfbench/selftest.py

Runs one untraced and one traced pass of small CLI commands and checks that
the runs emit exactly the metric names and units BENCHMARK.json declares,
that the bypass a workload relies on shows in the trace (no Hecke
multiplication without a `basis` or center command), and that a deliberately
failing output check and a failing exit each raise the error rate.  Takes a
few seconds; exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
import time

import run
import tracer
from workloads import Workload, cmd, dim_ok, expect, verify_ok


def size_is(size: int):
    def check(doc) -> None:
        expect(doc["size"] == size, f"class size {doc['size']} != {size}")
    return check


def classes_are(count: int):
    def check(doc) -> None:
        expect(len(doc["classes"]) == count,
               f"{len(doc['classes'])} classes != {count}")
    return check


SMOKE = Workload("smoke", (
    cmd("verify --n 5 --suite center", verify_ok("center", 5, 7)),
    cmd("verify --n 5 --suite classes", verify_ok("classes", 5, 7)),
    cmd("classes --n 5", classes_are(7)),
    cmd("sigma --alpha 5", size_is(6)),
    cmd("dim --n 6", dim_ok(12)),
))

BROKEN = Workload("broken", (
    cmd("dim --n 6", dim_ok(13)),       # the dimension is 12
    cmd("sigma --alpha 0", size_is(1)),  # invalid input: exit 1
    cmd("sigma --alpha 5", size_is(6)),
))


def measure(workload: Workload, trace: bool) -> dict:
    deadline = time.perf_counter() + run.RUN_LIMIT_S
    return run.run_workload(workload, seed=0, seconds=0, trace=trace,
                            deadline=deadline)


def declared(key: str) -> list[tuple[str, str]]:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec[key]]


def main() -> int:
    failures = []

    def check(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            failures.append(message)

    check(declared("end_to_end") == list(run.END_TO_END),
          "BENCHMARK.json end_to_end matches the harness")
    check(declared("per_layer") == list(tracer.PER_LAYER),
          "BENCHMARK.json per_layer matches the tracer")

    plain = measure(SMOKE, trace=False)
    check(plain["correct"] and plain["failed"] == 0,
          f"smoke pass has no failures ({plain['failed']} of {plain['attempted']})")
    emitted = [(k, v["unit"]) for k, v in plain["metrics"].items()]
    check(emitted == declared("end_to_end"),
          "untraced run emits every end_to_end metric, nothing else")
    check(all(v["value"] > 0 for v in plain["metrics"].values()),
          "every end_to_end metric is positive")

    traced = measure(SMOKE, trace=True)
    check(traced["correct"], "traced smoke pass has no failures")
    emitted = [(k, v["unit"]) for k, v in traced["metrics"].items()]
    check(emitted == declared("per_layer"),
          "traced run emits every per_layer metric, nothing else")
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    check(values["hecke.left_mul_gen.calls"] > 0
          and values["cyclic_shift.equiv_classes.calls"] > 0
          and values["permutations.length.calls"] > 0,
          "the wrappers see calls in hecke, cyclic_shift and permutations")
    check(values["verify.suite_center.self_s"] > 0
          and values["cli.main.self_s"] > 0,
          "suites reached through verify.SUITES are traced")

    without_hecke = Workload("no-hecke", SMOKE.commands[1:])
    values = {k: v["value"]
              for k, v in measure(without_hecke, trace=True)["metrics"].items()}
    check(values["hecke.left_mul_gen.calls"] == 0
          and values["hecke.order_ideal.elements"] == 0,
          "commands without Hecke arithmetic read 0 hecke calls")

    broken = measure(BROKEN, trace=False)
    rate = broken["failed"] / broken["attempted"]
    check(not broken["correct"] and broken["failed"] == 2,
          f"a failing check and a failing exit count as failures "
          f"(error_rate {rate:.3f})")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
