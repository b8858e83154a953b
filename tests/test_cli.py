"""The command-line interface: subcommands, JSON schemas, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import types
from itertools import accumulate, chain
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heckezero import cli, counting, cyclic_shift, hecke, stair_classes
from heckezero.cli import main
from heckezero.errors import InvariantError

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out), err


class TestClasses:
    def test_s3_max_catalog(self, capsys):
        doc, _ = run_json(capsys, "classes", "--n", "3")
        assert doc["n"] == 3 and doc["twist"] == "id"
        assert doc["stratum"] == "max"
        got = {tuple(map(tuple, c["elements"])): tuple(c["alpha"])
               for c in doc["classes"]}
        assert got == {
            ((1, 2, 3),): (1, 1, 1),
            ((2, 3, 1), (3, 1, 2)): (3,),
            ((3, 2, 1),): (2, 1),
        }

    def test_all_stratum_has_null_alpha(self, capsys):
        doc, _ = run_json(capsys, "classes", "--n", "3", "--stratum", "all")
        assert sum(c["size"] for c in doc["classes"]) == 6
        assert all(c["alpha"] is None for c in doc["classes"])

    def test_nu_twist_min(self, capsys):
        doc, _ = run_json(capsys, "classes", "--n", "3", "--twist", "nu",
                          "--stratum", "min")
        assert doc["twist"] == "nu"
        assert len(doc["classes"]) == 3

    def test_elements_sorted(self, capsys):
        doc, _ = run_json(capsys, "classes", "--n", "4")
        for cls in doc["classes"]:
            assert cls["elements"] == sorted(cls["elements"])
            assert cls["rep"] == cls["elements"][0]
            assert cls["size"] == len(cls["elements"])

    def test_force_gate(self, capsys):
        code, _, err = run(capsys, "classes", "--n", "9")
        assert code == 1
        assert "force" in err

    def test_invariant_failure_exits_2(self, capsys, monkeypatch):
        def broken(n, force=False):
            raise InvariantError("stair forms of (3,) and (2, 1) share one class")

        monkeypatch.setattr(cyclic_shift, "label_max_classes", broken)
        code, _, err = run(capsys, "classes", "--n", "3")
        assert code == 2
        assert "internal invariant violated" in err
        assert "Traceback" not in err

    def test_recursion_error_is_not_an_invariant_failure(self, capsys,
                                                         monkeypatch):
        # RecursionError subclasses RuntimeError; only InvariantError is
        # an internal invariant, so this one keeps its traceback
        def broken(n, force=False):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cyclic_shift, "label_max_classes", broken)
        with pytest.raises(RecursionError):
            main(["classes", "--n", "3"])
        assert "internal invariant violated" not in capsys.readouterr().err

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "classes", "--n", "4")
        _, out2, _ = run(capsys, "classes", "--n", "4")
        assert out1 == out2


class TestSigma:
    def test_311(self, capsys):
        doc, _ = run_json(capsys, "sigma", "--alpha", "3,1,1")
        assert doc["alpha"] == [3, 1, 1]
        assert doc["size"] == 6
        assert doc["length"] == 6
        assert len(doc["elements"]) == 6

    def test_rejects_non_maximal(self, capsys):
        code, _, err = run(capsys, "sigma", "--alpha", "1,2")
        assert code == 1 and "maximal" in err

    def test_rejects_garbage(self, capsys):
        code, _, err = run(capsys, "sigma", "--alpha", "2,x")
        assert code == 1

    @pytest.mark.parametrize("text", ["1_1", "+3", "3-1"])
    def test_rejects_what_int_would_misread(self, capsys, text):
        # int() reads "1_1" as 11 and "+3" as 3
        code, out, err = run(capsys, "sigma", "--alpha", text)
        assert code == 1
        assert out == ""
        assert "cannot parse composition" in err

    @pytest.mark.parametrize("text", ["3,,1,1", "3,1,", "", ","])
    def test_rejects_an_empty_part(self, capsys, text):
        # read as (3, 1, 1) or (), a typo or an empty shell variable would
        # silently change the label
        for command in ("sigma", "count", "stairform"):
            code, out, err = run(capsys, command, "--alpha", text)
            assert code == 1, command
            assert out == ""
            assert "cannot parse composition" in err

    def test_non_hook_tail_needs_no_gate(self, capsys):
        doc, _ = run_json(capsys, "sigma", "--alpha", "2,5,5")
        assert doc["size"] == 664

    def test_identity_of_degree_256_writes_values_above_a_byte(self, capsys):
        # its one row holds 256, which the byte scatter cannot take
        code, out, _ = run(capsys, "sigma", "--alpha", ",".join(["1"] * 256))
        assert code == 0
        identity = list(range(1, 257))
        plain = {"alpha": [1] * 256, "length": 0, "size": 1, "rep": identity,
                 "elements": [identity]}
        assert out == json.dumps(plain, indent=2, sort_keys=True) + "\n"

    def test_a_repeated_lane_exits_2(self, capsys, monkeypatch):
        lift = stair_classes._lift_all
        monkeypatch.setattr(stair_classes, "_lift_all", lambda columns, labels: [
            column + column[:1] for column in lift(columns, labels)])
        code, out, err = run(capsys, "sigma", "--alpha", "2,7")
        assert (code, out) == (2, "")
        assert "internal invariant violated" in err

    def test_a_lost_free_point_past_a_byte_exits_2(self, capsys, monkeypatch):
        # the tuple route is checked as the byte route is
        embed = stair_classes.odd_hook_embed
        monkeypatch.setattr(stair_classes, "odd_hook_embed",
                            lambda tau, j, alpha: embed(tau, 3, alpha))
        code, out, err = run(capsys, "sigma", "--alpha", "4,5" + ",1" * 247)
        assert (code, out) == (2, "")
        assert "internal invariant violated" in err


class TestStairform:
    def test_42(self, capsys):
        doc, _ = run_json(capsys, "stairform", "--alpha", "4,2")
        assert doc["one_line"] == [6, 5, 4, 3, 1, 2]
        assert doc["cycles"] == "(1,6,2,5)(3,4)"
        assert doc["maximal"] is True

    def test_non_maximal_still_prints(self, capsys):
        doc, _ = run_json(capsys, "stairform", "--alpha", "1,2")
        assert doc["maximal"] is False


class TestDim:
    def test_n3(self, capsys):
        code, out, _ = run(capsys, "dim", "--n", "3")
        assert code == 0
        assert out.strip() == "3"

    def test_n7(self, capsys):
        code, out, _ = run(capsys, "dim", "--n", "7")
        assert out.strip() == "16"

    def test_force_is_not_an_option(self, capsys):
        # neither dim nor stairform runs brute force, so neither takes --force
        for argv in (("dim", "--n", "5"), ("stairform", "--alpha", "4,2")):
            code, out, err = run(capsys, *argv, "--force")
            assert code == 1
            assert out == ""
            assert "--force" in err


class TestCount:
    def test_formula_and_enumeration(self, capsys):
        doc, _ = run_json(capsys, "count", "--alpha", "2,4,3,1,1")
        assert doc["formula"] == 12
        assert doc["enumerated"] == 12

    def test_large_constructive_only_formula(self, capsys):
        doc, _ = run_json(capsys, "count", "--alpha", "2,8,4,5,1,1,1")
        assert doc["formula"] == 864
        assert doc["enumerated"] == 864

    def test_non_hookish_small_enumerates(self, capsys):
        doc, _ = run_json(capsys, "count", "--alpha", "3,3")
        assert doc["formula"] is None
        assert doc["enumerated"] == 22

    def test_gate_counts_odd_tail_degree(self, capsys):
        doc, _ = run_json(capsys, "count", "--alpha", "2,3,3,1,1")
        assert doc["formula"] is None
        assert doc["enumerated"] == 108

    def test_non_hook_tail_is_enumerated_without_formula(self, capsys):
        doc, _ = run_json(capsys, "count", "--alpha", "5,5")
        assert doc["formula"] is None
        assert doc["enumerated"] == 664

    def test_force_lifts_the_size_gate(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "ELEMENT_SOFT_LIMIT", 100)
        for command in ("sigma", "count"):
            code, out, err = run(capsys, command, "--alpha", "11")
            assert (code, out) == (1, "")
            assert "force" in err
            doc, _ = run_json(capsys, command, "--alpha", "11", "--force")
            assert doc["size" if command == "sigma" else "enumerated"] == 162

    def test_construction_fault_is_not_read_as_gated(self, capsys,
                                                     monkeypatch):
        def broken(alpha, force=False):
            raise ValueError("constructive route broke")

        monkeypatch.setattr(stair_classes, "sigma_class", broken)
        code, out, err = run(capsys, "count", "--alpha", "2,4,3,1,1")
        assert code != 0
        assert out == ""
        assert "constructive route broke" in err


class TestBasis:
    def test_single_alpha(self, capsys):
        doc, _ = run_json(capsys, "basis", "--n", "3", "--alpha", "3")
        assert doc["alpha"] == [3]
        assert doc["ideal_size"] == 5
        assert all(t["c"] == 1 for t in doc["terms"])
        assert [3, 2, 1] not in [t["w"] for t in doc["terms"]]

    def test_whole_basis(self, capsys):
        doc, _ = run_json(capsys, "basis", "--n", "3")
        assert doc["dim"] == 3
        sizes = sorted(e["ideal_size"] for e in doc["elements"])
        assert sizes == [1, 5, 6]

    def test_degree_gate(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "basis", "--n", "9", "--alpha", "9")
        assert time.perf_counter() - start < 5
        assert code == 1
        assert out == ""
        assert "force" in err

    def test_alpha_degree_mismatch(self, capsys):
        code, _, err = run(capsys, "basis", "--n", "4", "--alpha", "3")
        assert code == 1

    def test_whole_basis_gate_comes_first(self):
        # the gate used to wait for the first ideal, after enumerating the
        # labels and the dimension; run_quietly fails a call past 1 s
        code, out, err = run_quietly(["basis", "--n", "60"])
        assert code == 1
        assert out == ""
        assert "force" in err

    @pytest.mark.parametrize("text", ["", ","])
    def test_empty_alpha_is_rejected(self, capsys, text):
        code, out, err = run(capsys, "basis", "--n", "3", "--alpha", text)
        assert code == 1
        assert out == ""
        assert "cannot parse composition" in err

    def test_whole_basis_from_one_walk(self, capsys, monkeypatch):
        # one rank walk serves every label, where each once had its own
        walks = []
        sweep = hecke._ideal_masks

        def counted(seeds, by_rank=False):
            walks.append(len(seeds))
            return sweep(seeds, by_rank)

        monkeypatch.setattr(hecke, "_ideal_masks", counted)
        doc, _ = run_json(capsys, "basis", "--n", "6")
        assert walks == [doc["dim"]] == [12]

    @pytest.mark.parametrize("n", range(7))
    def test_written_terms_are_the_algebra_elements(self, capsys, n):
        # the terms streamed off the shared walk, in the order written,
        # are those of the one-label element `t_leq_sigma`
        doc, _ = run_json(capsys, "basis", "--n", str(n))
        for entry in doc["elements"]:
            element = hecke.t_leq_sigma(tuple(entry["alpha"]), n)
            assert entry["ideal_size"] == element.support_size()
            assert [(tuple(t["w"]), t["c"]) for t in entry["terms"]] == list(
                element.terms.items())

    def test_whole_basis_holds_no_term(self, monkeypatch):
        # S_7 has 5,040 elements and 16 labels; holding every label's terms
        # as tuples peaked at over 8 MiB
        sink = types.SimpleNamespace(write=len, flush=lambda: None)
        monkeypatch.setattr(cli.sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["basis", "--n", "7"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 3 * 2**20


class TestVerify:
    def test_all_suites_pass_n4(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "4", "--suite", "all")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert set(doc["suites"]) == {"classes", "hooks", "iprod", "center"}
        assert "PASS" in err

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--suite", "hooks")
        assert code == 0
        assert json.loads(out)["suites"]["hooks"]["ok"] is True


class TestPlumbing:
    @pytest.mark.parametrize("argv", [
        "sigma --alpha 5001", "count --alpha 99999999999", "classes --n 9",
        "verify --n 9", "basis --n 9 --alpha 9", "sigma --alpha 3,3,3,3,3",
    ])
    def test_a_refusal_names_the_flag(self, capsys, argv):
        # the library's message names its keyword, force=True
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert "--force" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "dim.json"
        code, out, _ = run(capsys, "dim", "--n", "3", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == 3

    def test_out_file_bytes_equal_stdout(self, capsys, tmp_path):
        # 1,458 rows: several pieces
        target = tmp_path / "sigma.json"
        code, out, _ = run(capsys, "sigma", "--alpha", "15")
        assert code == 0
        assert json.loads(out)["size"] > 2 * cli._ROWS_PER_PIECE
        code, quiet, _ = run(capsys, "sigma", "--alpha", "15",
                             "--out", str(target))
        assert code == 0 and quiet == ""
        assert target.read_bytes() == out.encode()

    def test_out_file_in_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "sigma.json"
        code, out, err = run(capsys, "sigma", "--alpha", "3",
                             "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err

    def test_closed_stdout_exits_1_quietly(self):
        # the reader takes one line and closes the pipe while most of the
        # 3.5 MB class is still to be written
        proc = subprocess.Popen(
            [sys.executable, "-m", "heckezero.cli", "sigma", "--alpha", "19"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        with proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 1
        assert err == b""

    def test_unbuffered_stdout_matches_the_recorded_digest(self):
        # with PYTHONUNBUFFERED every write of a piece reaches the pipe
        text = "sigma --alpha 19"
        proc = subprocess.run(
            [sys.executable, "-m", "heckezero.cli", *text.split()],
            capture_output=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1"))
        assert hashlib.sha256(proc.stdout).hexdigest() == dict(self.GOLDEN)[text]

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required(self, capsys):
        code, _, err = run(capsys, "dim")
        assert code == 1

    # sha256 of stdout, recorded from commit 74ca628: the eleven benchmark
    # commands and two more with large or twisted catalogues; the next two,
    # the id-twisted minimal and nu-twisted maximal strata, from commit
    # 0e45d3c, before the strata came from one pass over S_n; the last two,
    # the whole catalogue of S_6 (184 row lists) and
    # the terms of S_0 (a word of length 0), from commit e8ed2b2, before the
    # stdlib wrote the documents.  The digests of `verify --n 7 --suite
    # classes` and `--suite iprod` were re-recorded on the commit after
    # a9cfb36, which moved the closed-count checks from the iprod suite to
    # the classes suite, where they cover every label with a closed count.
    # The last two, from commit 5a56ed9, pin the deepest odd lift levels
    # (39,366 rows) and the ideal of (9) at n = 9 before the lift and the
    # basis terms were carried as byte rows
    GOLDEN = [
        ("verify --n 7 --suite center",
         "d64ece2f055d623bfb3e576b35ba82105a9bb39034ab79fea1fa0ab6b34eda98"),
        ("classes --n 8",
         "e8156896658795defda59b70d25bf70486885e2ee946b6a41d5c9974b789fde3"),
        ("verify --n 7 --suite classes",
         "b8027704c92390fd6cd49612221cf6ae5c8ed7495bb8ca6b7cae8a9eb1ae7ea1"),
        ("verify --n 7 --suite hooks",
         "c04c28dfc3735e99c6a0b011995c1381f7dbb8bcfe8111f6af887ee4cf547756"),
        ("verify --n 7 --suite iprod",
         "3a286adbc69a74e45e508e5093a81ebd0953d601b6f3e9178e7afc62a87de98a"),
        ("sigma --alpha 3,3,3 --force",
         "553232f6b1dbfc16f6069afcdbc566f2580ca1f022fd1745d694c309e743811e"),
        ("sigma --alpha 19",
         "c1246a17e2faa8b92a42d4eb52891ecb74eeb28273451ab6e8d04259fccfa45b"),
        ("sigma --alpha 2,8,4,5,1,1,1",
         "3b29af8d230deac72cb47f06338c3838b53b9ec75604f6b055ec33da487db672"),
        ("count --alpha 2,8,4,5,1,1,1",
         "b6ab98d5e64df050fe1ed3e4c3084aae1bd2aa21f3230ba654a09cde79f6e9a2"),
        ("dim --n 36",
         "6770e51926d6659180c6196fad2f009bf7006af38452feb2714df709495a4e65"),
        ("basis --n 8 --alpha 8",
         "5c23193c03f688f3db446fae3253e2c560fe73703b1e51ce5d685e6ea31e6c88"),
        ("basis --n 7",
         "f354f1e5371136aeb5cec5a84419cc99f43eef02dfae46c9891080a9e16c43e3"),
        ("classes --n 6 --twist nu --stratum min",
         "9122c768c5287530555df1ebede828eb4fa313cf709dda74b1a6cebdf2183333"),
        ("classes --n 7 --stratum min",
         "82ab960b81d80a1245e3a5ca519135cedca222f04de7a7507f1f056109605a07"),
        ("classes --n 6 --twist nu --stratum max",
         "bc284d5ccf4f1a22b4ff8ff577c916d7b7324b358d3447945f960c6e3c60abf6"),
        ("classes --n 6 --stratum all",
         "652eb74d51e63f0561496b56e0cd6392c3cd83be568b1bdd36639cfd85ac1778"),
        ("basis --n 0",
         "6cf9ba95fa88fe2da781d57e158ffc9e5316c72bb262462449c29556dc12523f"),
        ("sigma --alpha 21",
         "b178c409309963e01dbf2c8cedfb631b4b56d3473da0e554b7d204ea325b1c3e"),
        ("basis --n 9 --alpha 9 --force",
         "9fa758f7f6674348dc51c3c755c2a443ca2f6377001c012162bd0577cc86c03c"),
        # the next five, from commit c6725c5, before a labelled class was
        # carried as byte columns: a label of degree 256 and its count, the
        # longest class of 128 even parts, a non-hook odd tail behind an
        # even part, and two even parts before a hook tail
        ("sigma --alpha 4,5" + ",1" * 247,
         "591c469350ffc1bbd3bdd31a9e3a36921f35a45aeb2e4634c553be97b8839cef"),
        ("count --alpha 4,5" + ",1" * 247,
         "bfad8f1019ff407586aca453506f56f5c5026acda74b38d60b6367dba788b492"),
        ("sigma --alpha 2" + ",2" * 127,
         "a0bebb387e74f80bc0a9de9aca6b385df43db294acaca3baa9846537714a52b6"),
        ("sigma --alpha 2,5,5",
         "4b2e72b6169e2893dca6419e11553651dbf8a0feab3a1abc87cf5089a95f2bc1"),
        ("sigma --alpha 4,3,3,1",
         "63026d9ffed0a9d44eb353eb2a3699e54497fadade97cc032d96e820ffaf74b8"),
    ]

    def test_stdout_bytes_match_the_recorded_digests(self, capsys):
        # the stdout JSON contract: a change that alters one byte shows here
        got = {}
        for text, _ in self.GOLDEN:
            code, out, _ = run(capsys, *text.split())
            assert code == 0, text
            got[text] = hashlib.sha256(out.encode()).hexdigest()
        assert got == dict(self.GOLDEN)


def run_quietly(argv, limit=1.0):
    """`main(argv)` with its stdout and stderr captured.  A call that runs
    past `limit` seconds is interrupted by a TimeoutError, so an ungated
    command fails the test before its work grows large."""
    def too_slow(signum, frame):
        raise TimeoutError(f"{argv} ran past {limit} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


_PARTS = st.integers(min_value=1, max_value=9).map(str)
_BAD_PARTS = (
    st.tuples(st.from_regex(r"\A[0-9]{0,2}\Z"),
              st.text(alphabet="abxyz.%/e_+-", min_size=1),
              st.from_regex(r"\A[0-9]{0,2}\Z")).map("".join)
    | st.just("")
    | st.integers(max_value=0).map(str))


@st.composite
def _malformed_alphas(draw):
    parts = draw(st.lists(_PARTS, max_size=4))
    at = draw(st.integers(min_value=0, max_value=len(parts)))
    return ",".join(parts[:at] + [draw(_BAD_PARTS)] + parts[at:])


_REFUSED = (
    st.tuples(st.sampled_from(["sigma", "count", "stairform"]),
              _malformed_alphas()).map(lambda t: [t[0], "--alpha=" + t[1]])
    | _malformed_alphas().map(lambda a: ["basis", "--n=3", "--alpha=" + a])
    | st.tuples(st.sampled_from(["classes", "dim", "basis", "verify"]),
                st.integers(max_value=-1)).map(
                    lambda t: [t[0], f"--n={t[1]}"])
    | st.tuples(st.integers(min_value=9, max_value=10**6),
                st.sampled_from(["max", "min", "all"]),
                st.sampled_from(["id", "nu"])).map(
                    lambda t: ["classes", f"--n={t[0]}", "--stratum", t[1],
                               "--twist", t[2]])
    | st.integers(min_value=9, max_value=10**6).flatmap(
        lambda n: st.sampled_from([["basis", f"--n={n}"],
                                   ["basis", f"--n={n}", f"--alpha={n}"]]))
    | st.tuples(st.integers(min_value=9, max_value=10**6),
                st.sampled_from(["all", "classes", "hooks", "iprod",
                                 "center"])).map(
                    lambda t: ["verify", f"--n={t[0]}", "--suite", t[1]])
    # one part of 25 or more holds over 200,000 elements
    | st.tuples(st.sampled_from(["sigma", "count"]),
                st.integers(min_value=25, max_value=10**12)).map(
                    lambda t: [t[0], f"--alpha={t[1]}"]))


class TestArgvFuzz:
    @settings(deadline=None, max_examples=150)
    @given(_REFUSED)
    def test_bad_or_ungated_argv_exits_1_at_once(self, argv):
        code, out, err = run_quietly(argv)
        assert code == 1, (argv, err)
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["sigma", "--alpha=5001"], ["count", "--alpha=99999999999"],
        ["sigma", "--alpha=5000,1"], ["count", "--alpha=2,40,3,1,1"],
        ["sigma", "--alpha=25"],
    ])
    def test_huge_labels_exit_1_at_once(self, argv):
        # the class size is gated before the class or its formula is built;
        # run_quietly fails a call past 1 s
        code, out, err = run_quietly(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "force" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["sigma", "--alpha=3,3,3,3,3"], ["count", "--alpha=3,3,3,3,3,3,3"],
    ])
    def test_non_hook_tails_exit_1_after_a_bounded_search(self, argv):
        # no closed count predicts these classes (1,251,156 elements for
        # the first); the search stops once the class outgrows the limit
        code, out, err = run_quietly(argv, limit=5.0)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "force" in err and "Traceback" not in err
        # the refusal names the label, not its stair form
        label = tuple(map(int, argv[1].split("=")[1].split(",")))
        assert f"the class of {label} " in err

    @pytest.mark.parametrize("argv", [
        ["basis", "--n=3", "--alpha=--"], ["stairform", "--alpha=--"],
        ["sigma", "--alpha=--"], ["dim", "--n=--"], ["verify", "--n=--"],
        ["classes", "--n=3", "--twist=--"], ["verify", "--n=3", "--suite=--"],
    ])
    def test_double_dash_value_exits_1(self, argv):
        code, out, err = run_quietly(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --") and "Traceback" not in err


_INTS = st.integers(min_value=-2**70, max_value=2**70)
_STRINGS = st.text() | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\n\t", "é", "\u2028", "\U0001f600"])
_SCALARS = st.none() | st.booleans() | _INTS | st.floats() | _STRINGS
_INT_LISTS = st.lists(_INTS) | st.lists(_INTS | st.booleans() | st.none())
_TREES = st.recursive(
    _SCALARS | _INT_LISTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=24)


def _words(size):
    return st.tuples(*[_INTS] * size)


# words of one length per example, as every command writes
_ROW_LISTS = st.integers(min_value=0, max_value=4).flatmap(
    lambda size: st.lists(_words(size), max_size=6))
# words of one length whose values are mostly bytes, some of them above 255
_BYTE_ROWS = st.integers(min_value=0, max_value=4).flatmap(
    lambda size: st.lists(st.tuples(
        *[st.integers(min_value=0, max_value=300)] * size), max_size=6))
# byte rows of one length, 1 to 4 values each, in blocks of whole rows,
# with that length: the arguments of the byte form of `_Rows`
_ROW_BLOCKS = st.integers(min_value=1, max_value=4).flatmap(
    lambda size: st.tuples(st.lists(st.lists(
        st.binary(min_size=size, max_size=size), max_size=4).map(b"".join),
        max_size=3), st.just(size)))


@st.composite
def _rank_terms(draw):
    """The terms of one ideal of a rank array of S_n, n <= 4, as `basis`
    writes them: permutations in lex order, each with one coefficient, as
    tuples or (for n >= 1) as the blocks of byte rows."""
    n = draw(st.integers(min_value=0, max_value=4))
    ids = draw(st.binary(min_size=factorial(n), max_size=factorial(n)))
    keep = bytes(draw(st.lists(st.sampled_from([0, 255]), min_size=256,
                               max_size=256)))
    terms = hecke._IdealTerms(n, bytearray(ids), keep)
    if n and draw(st.booleans()):
        return cli._Terms(list(terms.blocks()), draw(_INTS), n)
    return cli._Terms(terms, draw(_INTS))


_HELD_TREES = st.recursive(
    _SCALARS | _INT_LISTS | (_ROW_LISTS | _BYTE_ROWS).map(cli._Rows)
    | st.builds(cli._Terms, _ROW_LISTS | _BYTE_ROWS, _INTS) | _rank_terms()
    | _ROW_BLOCKS.map(lambda pair: cli._Rows(*pair))
    | st.builds(lambda pair, c: cli._Terms(pair[0], c, pair[1]),
                _ROW_BLOCKS, _INTS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=24)


def _words_of(held):
    """The words of a `_Rows` or `_Terms` in either form."""
    if not held.size:
        return held.rows
    return [block[at:at + held.size] for block in held.rows
            for at in range(0, len(block), held.size)]


def _plain(value):
    """`value` with each `_Rows` or `_Terms` replaced by the lists or
    objects it stands for."""
    if isinstance(value, cli._Terms):
        return [{"c": value.c, "w": list(w)} for w in _words_of(value)]
    if isinstance(value, cli._Rows):
        return [list(w) for w in _words_of(value)]
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _json_text(doc) -> str:
    return "".join(cli._json_chunks(doc))


class TestJsonText:
    @given(_TREES)
    def test_matches_stdlib_indented_dump(self, doc):
        assert _json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @given(_HELD_TREES)
    def test_row_lists_splice_in_at_any_depth(self, doc):
        assert _json_text(doc) == json.dumps(
            _plain(doc), sort_keys=True, indent=2)

    @pytest.mark.parametrize("doc", [
        {"a": cli._HELD}, [cli._Rows([(1, 2)]), {"b": [cli._HELD]}],
        {cli._HELD: cli._Terms([()], 1)},
    ])
    def test_the_row_marker_as_a_string_raises_before_any_write(
            self, monkeypatch, doc):
        writes = []
        monkeypatch.setattr(cli.sys, "stdout",
                            types.SimpleNamespace(write=writes.append))
        with pytest.raises(InvariantError):
            cli._emit(doc, None, "summary")
        assert writes == []

    def test_empty_containers_nested(self):
        doc = {"": [[], {}, [[]]], "a": {"": {}}}
        assert _json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)

    # explicit ids, so that a case keeps its name when others are removed
    @pytest.mark.parametrize("doc", [{"a": 1, None: 2}, {"a": {3}}, [b"x"]],
                             ids=["doc1", "doc3", "doc4"])
    def test_rejects_what_it_does_not_write(self, doc):
        with pytest.raises(TypeError):
            _json_text(doc)

    @given(_ROW_LISTS, _INTS)
    def test_terms_write_as_the_objects_they_stand_for(self, rows, c):
        # basis writes its terms without building {"c", "w"} objects
        doc = {"terms": cli._Terms(rows, c), "more": [cli._Terms(rows, c), 1]}
        objects = [{"w": list(w), "c": c} for w in rows]
        plain = {"terms": objects, "more": [objects, 1]}
        assert _json_text(doc) == json.dumps(plain, sort_keys=True, indent=2)

    @given(_ROW_LISTS)
    def test_rows_write_as_the_lists_they_stand_for(self, rows):
        doc = {"rows": cli._Rows(rows), "more": [cli._Rows(rows), 1]}
        lists = [list(w) for w in rows]
        plain = {"rows": lists, "more": [lists, 1]}
        assert _json_text(doc) == json.dumps(plain, sort_keys=True, indent=2)

    @given(_BYTE_ROWS, _INTS)
    def test_byte_rows_write_as_what_they_stand_for(self, rows, c):
        # tuples take the template; when every value is 0..255 and a row
        # is not empty, the same rows as byte blocks, the first row in a
        # block of its own, take the column scatter
        lists = [list(w) for w in rows]
        assert _json_text(cli._Rows(rows)) == json.dumps(lists, indent=2)
        objects = [{"w": list(w), "c": c} for w in rows]
        assert _json_text(cli._Terms(rows, c)) == json.dumps(
            objects, sort_keys=True, indent=2)
        if rows and rows[0] and max(map(max, rows)) < 256:
            blocks = [bytes(rows[0]), b"", bytes(chain(*rows[1:]))]
            size = len(rows[0])
            assert _json_text(cli._Rows(blocks, size)) == json.dumps(
                lists, indent=2)
            assert _json_text(cli._Terms(blocks, c, size)) == json.dumps(
                objects, sort_keys=True, indent=2)

    # explicit ids, so that a case keeps its name when others are removed
    @pytest.mark.parametrize("rows", [
        [], [()], [(), ()], [(7,)], [(2**70, -2**70, 0)],
        # rows of one length around the bound of a piece
        [(k,) for k in range(255)], [(k, -k) for k in range(256)],
        [(k,) for k in range(257)], [()] * 513, [(k, 1, 2) for k in range(513)],
        # pieces of digit width 1, 2 and 3, a piece above 255, then 1 and 2
        [(k % (10, 100, 256, 300)[k // 256 % 4], k % 7) for k in range(1300)],
    ], ids=[f"rows{k}" for k in (0, 1, 2, 4, *range(9, 16))])
    def test_row_lists_of_every_shape(self, rows):
        lists = [list(w) for w in rows]
        assert _json_text(cli._Rows(rows)) == json.dumps(lists, indent=2)
        # each row closes one bracket, the list one more
        assert [p.count("]") for p in cli._json_chunks(cli._Rows(rows))] == [
            *(min(256, len(rows) - k) for k in range(0, len(rows), 256)), 1]
        # one coefficient for every word, as `basis` writes its terms
        for c in (1, -3, 2**70):
            objects = [{"w": list(w), "c": c} for w in rows]
            assert _json_text(cli._Terms(rows, c)) == json.dumps(
                objects, sort_keys=True, indent=2)

    # explicit ids, so that a case keeps its name when others are removed
    @pytest.mark.parametrize("counts", [
        [], [0], [1], [256], [257, 0, 3], [0, 513, 255, 1],
    ], ids=["blocks0", "blocks1", "blocks2", "blocks3", "blocks4", "blocks5"])
    def test_byte_row_blocks_of_every_shape(self, counts):
        # rows of digit width 1, 2 and 3 by turns of 256, in blocks of the
        # given row counts; a piece never holds more than 256 rows nor
        # crosses a block
        rows = [(k % (10, 100, 256)[k // 256 % 3], k % 7 + 1)
                for k in range(sum(counts))]
        at = [0, *accumulate(counts)]
        blocks = [bytes(chain(*rows[a:b])) for a, b in zip(at, at[1:])]
        lists = [list(w) for w in rows]
        assert _json_text(cli._Rows(blocks, 2)) == json.dumps(lists, indent=2)
        pieces = list(cli._json_chunks(cli._Rows(blocks, 2)))
        assert [p.count("]") for p in pieces] == [
            *(min(256, count - k) for count in counts
              for k in range(0, count, 256)), 1]
        for c in (1, -3, 2**70):
            objects = [{"w": list(w), "c": c} for w in rows]
            assert _json_text(cli._Terms(blocks, c, 2)) == json.dumps(
                objects, sort_keys=True, indent=2)

    @staticmethod
    def emitted_pieces(monkeypatch, doc):
        """The writes `_emit` makes to stdout for `doc`, checked against
        the pieces of `_json_chunks` and the whole text."""
        writes = []
        monkeypatch.setattr(cli.sys, "stdout",
                            types.SimpleNamespace(write=writes.append))
        cli._emit(doc, None, "summary")
        assert writes == [*cli._json_chunks(doc), "\n"]
        assert "".join(writes) == _json_text(doc) + "\n"
        # more than one write: the document was never built whole
        assert len(writes) > 1
        return writes

    def test_emit_writes_terms_in_bounded_blocks(self, monkeypatch):
        terms = cli._Terms([(k,) for k in range(10_000)], -3)
        self.emitted_pieces(monkeypatch, {"terms": terms})
        pieces = list(cli._json_chunks(terms))
        # 39 pieces of 256 terms, a last one of 16, and the closing bracket
        assert [p.count("}") for p in pieces] == [256] * 39 + [16, 0]

    def test_emit_writes_rows_in_bounded_blocks(self, monkeypatch):
        rows = [(k, -k, 2**40) for k in range(12 * 256 + 100)]
        self.emitted_pieces(monkeypatch, {"rows": cli._Rows(rows)})
        pieces = list(cli._json_chunks(cli._Rows(rows)))
        assert [p.count("]") for p in pieces] == [256] * 12 + [100, 1]
        assert "".join(pieces) == json.dumps([list(w) for w in rows], indent=2)
