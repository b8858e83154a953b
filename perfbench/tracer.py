"""Span tracer for one heckezero CLI invocation, run in a process of its own.

    python3 perfbench/tracer.py SPANS_FILE CLI_ARG...

The tracer imports heckezero from outside the package and wraps every
function that a per-layer metric names, at every module binding.  Inside the
package, calls go through names copied by ``from .permutations import
length``, so `hecke`, `cyclic_shift`, `stair_classes`, ... each hold their own
reference; `verify.SUITES` holds the suite functions in a dict.  All of them
are replaced by the same wrapper.  The tracer then runs
``heckezero.cli.main(CLI_ARG...)``, keeps one span per wrapped call in memory
(name, start, end, parent) and writes them to SPANS_FILE once, at exit.

`summarize` reads spans files back and turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

#: Per-layer metrics, named ``<module>.<function>.<kind>``.  `calls` and
#: `self_s` (span duration minus the time its child spans cover) come from
#: the spans; the other kinds are counts listed in COUNTS or taken from the
#: `cycle_class` cache.  Every function named here is traced.
PER_LAYER = (
    ("permutations.length.calls", "count"),
    ("permutations.length.self_s", "s"),
    ("permutations.cycle_type.calls", "count"),
    ("permutations.cycle_type.self_s", "s"),
    ("permutations.from_cycles.calls", "count"),
    ("permutations.all_perms.calls", "count"),
    ("hecke.left_mul_gen.calls", "count"),
    ("hecke.left_mul_gen.self_s", "s"),
    ("hecke.right_mul_gen.calls", "count"),
    ("hecke.right_mul_gen.self_s", "s"),
    ("hecke.is_central.self_s", "s"),
    ("hecke.t_leq_sigma.self_s", "s"),
    ("hecke.order_ideal.self_s", "s"),
    ("hecke.order_ideal.elements", "count"),
    ("hecke.integer_matrix_rank.self_s", "s"),
    ("hecke.integer_matrix_rank.cells", "count"),
    ("cyclic_shift.equiv_classes.calls", "count"),
    ("cyclic_shift.equiv_classes.self_s", "s"),
    ("cyclic_shift.equiv_classes.classes", "count"),
    ("cyclic_shift.label_max_classes.self_s", "s"),
    ("stair_classes.sigma_class.calls", "count"),
    ("stair_classes.sigma_class.self_s", "s"),
    ("stair_classes.sigma_class.elements", "count"),
    ("stair_classes.member_sigma_alpha.calls", "count"),
    ("stair_classes.member_sigma_alpha.accepted", "count"),
    ("stair_classes.member_sigma_alpha.accept_ratio", "ratio"),
    ("stair_classes.cycle_class.self_s", "s"),
    ("stair_classes.cycle_class.cache_hits", "count"),
    ("stair_classes.cycle_class.cache_misses", "count"),
    ("stair_classes.lift_cycle_class.calls", "count"),
    ("stair_classes.lift_cycle_class.self_s", "s"),
    ("inductive_product.generate_hookish.self_s", "s"),
    ("inductive_product.class_product.self_s", "s"),
    ("inductive_product.iprod.calls", "count"),
    ("inductive_product.iprod.self_s", "s"),
    ("compositions.enumerate_maximal.calls", "count"),
    ("compositions.enumerate_maximal.self_s", "s"),
    ("compositions.enumerate_maximal.items", "count"),
    ("counting.dim_center.self_s", "s"),
    ("counting.size_sigma_formula.calls", "count"),
    ("verify.suite_classes.self_s", "s"),
    ("verify.suite_hooks.self_s", "s"),
    ("verify.suite_iprod.self_s", "s"),
    ("verify.suite_center.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.main.stdout_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

#: Counts read off a traced call: function -> (kind, count(args, result)).
COUNTS = {
    "hecke.order_ideal": ("elements", lambda args, res: len(res)),
    "hecke.integer_matrix_rank": (
        "cells", lambda args, res: len(args[0]) * len(args[0][0]) if args[0] else 0),
    "cyclic_shift.equiv_classes": ("classes", lambda args, res: len(res)),
    "stair_classes.sigma_class": ("elements", lambda args, res: res.size),
    "stair_classes.member_sigma_alpha": ("accepted", lambda args, res: int(bool(res))),
    "compositions.enumerate_maximal": ("items", lambda args, res: len(res)),
}

CACHED = "stair_classes.cycle_class"


def traced_functions() -> list[str]:
    """``<module>.<function>`` of every function a per-layer metric names."""
    out = []
    for name, _ in PER_LAYER:
        parts = name.split(".")
        if len(parts) == 3 and ".".join(parts[:2]) not in out:
            out.append(".".join(parts[:2]))
    return out


class Tracer:
    """Spans of wrapped calls, kept in flat arrays until `write`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._open = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        count_kind, count = COUNTS.get(name, (None, None))
        count_key = f"{name}.{count_kind}"
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends)
        open_spans, counts, clock = self._open, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()
            if count is not None:
                counts[count_key] += count(args, result)
            return result

        return wrapper

    def write(self, path: str, extra: dict) -> None:
        header = {"names": self.names, "spans": len(self.starts),
                  "counts": dict(self.counts), "extra": extra}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def install(tracer: Tracer) -> dict:
    """Replace every binding of each traced function, in every loaded
    heckezero module and in the dicts those modules hold, by one wrapper.
    Functions the package no longer has are skipped; their metrics read 0.
    Returns the originals by ``<module>.<function>``."""
    import heckezero.cli  # noqa: F401  (loads every module of the package)

    modules = [m for key, m in sorted(sys.modules.items())
               if key == "heckezero" or key.startswith("heckezero.")]
    originals = {}
    for qual in traced_functions():
        module_name, fn_name = qual.split(".")
        orig = getattr(sys.modules.get(f"heckezero.{module_name}"), fn_name, None)
        if orig is None:
            continue
        originals[qual] = orig
        wrapper = tracer.wrap(qual, orig)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is orig:
                            value[dkey] = wrapper
    return originals


def _cache_counts(fn) -> tuple[int, int]:
    info = fn.cache_info() if hasattr(fn, "cache_info") else None
    return (info.hits, info.misses) if info else (0, 0)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    originals = install(tracer)
    cached = originals.get(CACHED)
    hits0, misses0 = _cache_counts(cached)
    import heckezero.cli as cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        hits1, misses1 = _cache_counts(cached)
        tracer.write(spans_path, {f"{CACHED}.cache_hits": hits1 - hits0,
                                  f"{CACHED}.cache_misses": misses1 - misses0})


def read_spans(path: str) -> tuple[dict, list[array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in "iidd":
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return header, arrays


def summarize(path: str) -> dict[str, float]:
    """Per-layer values of one spans file: calls and self time per function,
    plus the recorded counts.  Metrics that need the harness
    (`cli.main.stdout_bytes`, `trace.overhead_s`) and ratios are left to the
    caller."""
    header, (name_ids, parents, starts, ends) = read_spans(path)
    durations = [e - s for s, e in zip(starts, ends)]
    covered = [0.0] * len(durations)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[idx]
    values: dict[str, float] = defaultdict(int)
    names = header["names"]
    for idx, name_id in enumerate(name_ids):
        name = names[name_id]
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += durations[idx] - covered[idx]
    for key, value in {**header["counts"], **header["extra"]}.items():
        values[key] += value
    return dict(values)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
