"""The benchmark's workloads: fixed heckezero CLI invocations, and the checks
on their output.

The checks test the values the paper fixes (class counts, class sizes, the
center dimension, ideal sizes) and a digest of each sorted element or term
list, not whole stdout bytes, so a later report field does not read as a
failure.  Digests were recorded on the seed implementation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable


class CheckFailed(Exception):
    """An output check did not hold."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(items) -> str:
    """sha256 of the canonical JSON of the sorted list `items`."""
    text = json.dumps(sorted(items), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check on its parsed JSON output; `check`
    raises CheckFailed."""

    argv: tuple[str, ...]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple[Command, ...]


def verify_ok(suite: str, n: int, dim: int) -> Callable[[object], None]:
    def check(doc) -> None:
        expect(doc["ok"] is True, "verify reported ok != true")
        report = doc["suites"][suite]
        expect(report["ok"] is True, f"suite {suite} reported ok != true")
        expect(report["n"] == n, f"suite {suite} ran at n={report['n']}")
        if "dim_center" in report:
            expect(report["dim_center"] == dim,
                   f"dim_center {report['dim_center']} != {dim}")
    return check


def class_ok(size: int, elements_digest: str) -> Callable[[object], None]:
    def check(doc) -> None:
        expect(doc["size"] == size, f"class size {doc['size']} != {size}")
        expect(len(doc["elements"]) == size,
               f"{len(doc['elements'])} elements listed, size is {size}")
        expect(digest(doc["elements"]) == elements_digest,
               "element list digest differs")
    return check


def catalog_ok(count: int, classes_digest: str) -> Callable[[object], None]:
    def check(doc) -> None:
        classes = doc["classes"]
        expect(len(classes) == count, f"{len(classes)} classes != {count}")
        items = [[c["alpha"], sorted(c["elements"])] for c in classes]
        expect(digest(items) == classes_digest, "class catalog digest differs")
    return check


def count_ok(size: int) -> Callable[[object], None]:
    def check(doc) -> None:
        expect(doc["formula"] == size, f"formula {doc['formula']} != {size}")
        expect(doc["enumerated"] == size,
               f"enumerated {doc['enumerated']} != {size}")
    return check


def dim_ok(value: int) -> Callable[[object], None]:
    def check(doc) -> None:
        expect(doc == value, f"dimension {doc} != {value}")
    return check


def basis_ok(ideal_size: int, terms_digest: str) -> Callable[[object], None]:
    def check(doc) -> None:
        terms = doc["terms"]
        expect(doc["ideal_size"] == ideal_size,
               f"ideal_size {doc['ideal_size']} != {ideal_size}")
        expect(len(terms) == ideal_size,
               f"{len(terms)} terms listed, ideal_size is {ideal_size}")
        expect(all(t["c"] == 1 for t in terms), "a coefficient is not 1")
        expect(digest([t["w"] for t in terms]) == terms_digest,
               "term list digest differs")
    return check


def cmd(text: str, check: Callable[[object], None]) -> Command:
    return Command(tuple(text.split()), check)


WORKLOADS = {
    "center": Workload(
        "center theorem at n=7: Hecke generator action, order ideals and "
        "Bareiss rank; no cyclic-shift SCC build",
        (cmd("verify --n 7 --suite center", verify_ok("center", 7, 16)),),
    ),
    "brute": Workload(
        "brute-force route: SCCs over S_8 and S_7, filter over S_9, hook "
        "predicates, class product; no Hecke arithmetic",
        (
            cmd("classes --n 8", catalog_ok(26, (
                "39df034b499aeee015154877d35f9f24836d6dadee80c927f6b7b20ca99bf5e0"))),
            cmd("verify --n 7 --suite classes", verify_ok("classes", 7, 16)),
            cmd("verify --n 7 --suite hooks", verify_ok("hooks", 7, 16)),
            cmd("verify --n 7 --suite iprod", verify_ok("iprod", 7, 16)),
            cmd("sigma --alpha 3,3,3 --force", class_ok(528, (
                "aa1c73c14522e4005fbf8649386cef8aa49141e4ab5d116807af66622898f360"))),
        ),
    ),
    "construct": Workload(
        "constructive route beyond brute force: insertion recursion, hook "
        "product, closed counts, one large order ideal, large JSON output",
        (
            cmd("sigma --alpha 19", class_ok(13122, (
                "e4d305e10da83ea0ba4afdc1daa6458eca92a2eecfaf0a17a5dd6e5441bdd27d"))),
            cmd("sigma --alpha 2,8,4,5,1,1,1", class_ok(864, (
                "fdc5883575f69536c767589bd524cbb283e97a92f88b16234dbdf622fdbf299c"))),
            cmd("count --alpha 2,8,4,5,1,1,1", count_ok(864)),
            cmd("dim --n 36", dim_ok(524552)),
            cmd("basis --n 8 --alpha 8", basis_ok(39470, (
                "b3cfbb6380e4f0bf38523c11f840c9e70a3f8c5f79f3a6286641ed5f1dcf6a33"))),
        ),
    ),
}
