"""
Command-line front end: batch computation, verification and JSON export.

Every subcommand writes a JSON document to stdout (or `--out FILE`) and a
one-line human summary to stderr.  Output is deterministic: keys sorted,
element lists sorted lexicographically.  The document is written in blocks
of about 64 KB and never built whole.  Exit codes: 0 success, 1 invalid
input, a degree or class size beyond its soft limit without --force, or
stdout closed by its reader before the document was written (quietly, as
in `| head`), 2 verification failure or internal invariant violated
(`InvariantError`).
Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice
from typing import Iterator

from .compositions import enumerate_maximal, hook_kind, is_maximal, split_even_odd
from .counting import dim_center, size_sigma_formula
from .cyclic_shift import _check_degree, equiv_classes, label_max_classes
from .errors import InvariantError
from .hecke import t_leq_sigma
from .permutations import cycle_string
from .stair_classes import sigma_class, stair_form
from .verify import run_suites

__all__ = ["main"]


class _CliError(Exception):
    """Invalid input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        for name, value in vars(parsed).items():
            if value == []:
                # argparse before Python 3.12 turns the inline value "--"
                # (as in --n=--) into [], past `type` and `choices`
                self.error(f"argument --{name}: expected one argument")
        return parsed


def _parse_alpha(text: str) -> tuple[int, ...]:
    parts = [part.strip() for part in text.split(",")]
    # int() alone would also read "1_1" as 11 and "+3" as 3
    if not all(part.removeprefix("-").isdecimal() for part in parts):
        raise _CliError(f"cannot parse composition {text!r}")
    alpha = tuple(map(int, parts))
    if any(a < 1 for a in alpha):
        raise _CliError(f"composition parts must be positive: {text!r}")
    return alpha


_ENCODE_STR = json.encoder.encode_basestring_ascii
_INT_ONLY = {int}
_STR_ONLY = {str}
_TUPLE_ONLY = {tuple}
_ROWS_PER_PIECE = 256           # rows of one length joined into one piece
_BLOCK_CHARS = 1 << 16          # characters gathered before each write


class _Rows(list):
    """Permutations, or other tuples, written as the list of their lists
    without building them."""


class _Terms:
    """The terms dict {w: c} of a Hecke element, keys in lexicographic
    order, written as the list of objects {"c": c, "w": w} without building
    them or a list of its (w, c) pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict) -> None:
        self.terms = terms


def _row_chunks(rows, indent: str) -> Iterator[str]:
    """A `_Rows` list or a `_Terms` dict as `_json_chunks` writes the lists
    or objects it stands for.

    When every row is a tuple of exact ints, and every coefficient an
    exact int, rows are written by one `%d` template per row length: rows
    of one length (all that the commands write) in pieces of up to
    `_ROWS_PER_PIECE` rows, each piece one join over the template, and
    rows of mixed lengths one piece per row.  Otherwise (`%d` would write
    True as 1) each row goes through `_json_chunks` as its plain value.
    """
    terms = type(rows) is _Terms
    if terms:
        rows = rows.terms       # iterating the dict gives the words
    if not rows:
        yield "[]"
        return
    inner = indent + "  "       # the lines of the rows
    sep = "[" + inner
    if not (set(map(type, rows)) == _TUPLE_ONLY
            and set(map(type, chain.from_iterable(rows))) <= _INT_ONLY
            and (not terms or set(map(type, rows.values())) == _INT_ONLY)):
        for row in rows.items() if terms else rows:
            yield sep
            yield from _json_chunks(
                {"c": row[1], "w": list(row[0])} if terms else list(row), inner)
            sep = "," + inner
        yield indent + "]"
        return
    member = inner + "  " if terms else inner   # the brackets of each word
    entry = member + "  "                       # the values of each word
    templates = {k: "[" + entry + ("," + entry).join(("%d",) * k) + member + "]"
                 if k else "[]" for k in set(map(len, rows))}
    if terms:
        head = "{" + member + '"c": %d,' + member + '"w": '
        # keyed, like the rows, by the number of values: c, then the word
        templates = {k + 1: head + t + inner + "}" for k, t in templates.items()}
        values = map(tuple.__add__, zip(rows.values()), rows)
    else:
        values = iter(rows)
    if len(templates) == 1:
        fill = templates.popitem()[1].__mod__
        join = ("," + inner).join
        while piece := join(map(fill, islice(values, _ROWS_PER_PIECE))):
            yield sep + piece
            sep = "," + inner
    else:
        for row in values:
            yield sep + templates[len(row)] % row
            sep = "," + inner
    yield indent + "]"


def _json_chunks(value, indent: str = "\n") -> Iterator[str]:
    """`value` as `json.dumps` writes it with sorted keys and an indent of
    two spaces, in pieces: one per member of a dict or of a list that
    holds more than ints, and the rows of a `_Rows` or `_Terms` list as
    `_row_chunks` writes them.

    The stdlib falls back to its pure-Python encoder whenever it indents,
    so this writer builds the same text itself: a list of exact ints (no
    bools) is joined in one C call, strings go through the C string
    encoder, and dict keys must be `str`.  `indent` is the newline plus the
    indentation of the line `value` starts on.
    """
    kind = type(value)
    inner = indent + "  "
    if kind is int:
        yield repr(value)
    elif kind is str:
        yield _ENCODE_STR(value)
    elif kind is _Rows or kind is _Terms:
        yield from _row_chunks(value, indent)
    elif kind is list:
        if not value:
            yield "[]"
        elif set(map(type, value)) == _INT_ONLY:
            yield "[" + inner + ("," + inner).join(map(repr, value)) + indent + "]"
        else:
            sep = "[" + inner
            for item in value:
                yield sep
                yield from _json_chunks(item, inner)
                sep = "," + inner
            yield indent + "]"
    elif kind is dict:
        if not value:
            yield "{}"
            return
        if set(map(type, value)) != _STR_ONLY:
            raise TypeError("JSON object keys must be str")
        sep = "{" + inner
        for key in sorted(value):
            yield sep + _ENCODE_STR(key) + ": "
            yield from _json_chunks(value[key], inner)
            sep = "," + inner
        yield indent + "}"
    elif value is None or kind is bool or kind is float:
        yield json.dumps(value)
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")


def _json_text(value) -> str:
    return "".join(_json_chunks(value))


def _write(fh, doc) -> None:
    """Write `doc` as JSON and a newline to `fh` in blocks: the pieces of
    `_json_chunks` are joined and written once `_BLOCK_CHARS` characters
    have gathered, so no write is longer than that plus one piece and the
    document is never built whole."""
    block = []
    size = 0
    for piece in _json_chunks(doc):
        block.append(piece)
        size += len(piece)
        if size >= _BLOCK_CHARS:
            fh.write("".join(block))
            block.clear()
            size = 0
    block.append("\n")
    fh.write("".join(block))


def _emit(doc, args, summary: str) -> None:
    """Write `doc` as JSON, block by block, to `--out` or stdout."""
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                _write(fh, doc)
        except OSError as exc:
            raise _CliError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        _write(sys.stdout, doc)
    print(summary, file=sys.stderr)


def _class_entry(cls) -> dict:
    elements = cls.sorted_elements()
    return {
        "alpha": list(cls.alpha) if cls.alpha is not None else None,
        "length": cls.common_length,
        "size": cls.size,
        "rep": list(elements[0]),
        "elements": _Rows(elements),
    }


def _cmd_classes(args) -> int:
    if args.twist == "id" and args.stratum == "max":
        classes = sorted(label_max_classes(args.n, force=args.force).values(),
                         key=lambda c: c.min_element)
    else:
        classes = equiv_classes(args.n, args.twist, args.stratum,
                                force=args.force)
    doc = {
        "n": args.n,
        "twist": args.twist,
        "stratum": args.stratum,
        "classes": [_class_entry(c) for c in classes],
    }
    _emit(doc, args,
          f"{len(classes)} classes of S_{args.n} "
          f"(twist={args.twist}, stratum={args.stratum})")
    return 0


def _cmd_sigma(args) -> int:
    alpha = _parse_alpha(args.alpha)
    cls = sigma_class(alpha, force=args.force)
    doc = _class_entry(cls)
    _emit(doc, args,
          f"class of {alpha}: {cls.size} elements of length {cls.common_length}")
    return 0


def _cmd_stairform(args) -> int:
    alpha = _parse_alpha(args.alpha)
    sf = stair_form(alpha)
    doc = {
        "alpha": list(alpha),
        "one_line": list(sf),
        "cycles": cycle_string(sf),
        "maximal": is_maximal(alpha),
    }
    _emit(doc, args, f"stair form of {alpha}: {cycle_string(sf)}")
    return 0


def _cmd_dim(args) -> int:
    value = dim_center(args.n)
    _emit(value, args, f"dim of the center at n={args.n}: {value}")
    return 0


def _cmd_count(args) -> int:
    alpha = _parse_alpha(args.alpha)
    # the class is gated by its predicted size before the formula is
    # evaluated, which for a huge label is a huge power
    enumerated = sigma_class(alpha, force=args.force).size
    _, odds, _ = split_even_odd(alpha)
    formula = None
    if not odds or hook_kind(odds) != "not_hook":
        formula = size_sigma_formula(alpha)
    doc = {"alpha": list(alpha), "formula": formula, "enumerated": enumerated}
    _emit(doc, args,
          f"size of the class of {alpha}: formula={formula} "
          f"enumerated={enumerated}")
    return 0


def _basis_entry(alpha, n, force) -> dict:
    element = t_leq_sigma(alpha, n, force=force)
    return {
        "alpha": list(alpha),
        "ideal_size": element.support_size(),
        "terms": _Terms(element.terms),
    }


def _cmd_basis(args) -> int:
    _check_degree(args.n, args.force)
    if args.alpha is not None:
        alpha = _parse_alpha(args.alpha)
        doc = _basis_entry(alpha, args.n, args.force)
        _emit(doc, args,
              f"basis element of {alpha}: {doc['ideal_size']} terms")
        return 0
    alphas = enumerate_maximal(args.n)
    doc = {
        "n": args.n,
        "dim": dim_center(args.n),
        "elements": [_basis_entry(a, args.n, args.force) for a in alphas],
    }
    _emit(doc, args, f"center basis at n={args.n}: {doc['dim']} elements")
    return 0


def _cmd_verify(args) -> int:
    report = run_suites(args.n, args.suite, force=args.force)
    _emit(report, args,
          f"verification at n={args.n} ({args.suite}): "
          + ("PASS" if report["ok"] else "FAIL"))
    return 0 if report["ok"] else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="heckezero", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, force=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the JSON document to this file")
        if force:
            p.add_argument("--force", action="store_true",
                           help="lift the practical bounds on degree and "
                                "class size")
        return p

    p = add("classes", _cmd_classes, help="equivalence-class catalog of S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--twist", choices=("id", "nu"), default="id")
    p.add_argument("--stratum", choices=("max", "min", "all"), default="max")

    p = add("sigma", _cmd_sigma, help="the class labelled by a composition")
    p.add_argument("--alpha", required=True, help='comma syntax, e.g. "3,1,1"')

    p = add("stairform", _cmd_stairform, force=False,
            help="stair form of a composition")
    p.add_argument("--alpha", required=True)

    p = add("dim", _cmd_dim, force=False, help="dimension of the center")
    p.add_argument("--n", type=int, required=True)

    p = add("count", _cmd_count, help="cardinality of a labelled class")
    p.add_argument("--alpha", required=True)

    p = add("basis", _cmd_basis, help="central basis elements as term lists")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", default=None)

    p = add("verify", _cmd_verify, help="cross-check suites at one degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--suite", choices=("all", "classes", "hooks", "iprod",
                                       "center"), default="all")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()      # a closed stdout raises here, not at exit
        return code
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; the flush at exit would raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
