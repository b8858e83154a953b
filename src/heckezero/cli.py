"""
Command-line front end: batch computation, verification and JSON export.

Every subcommand writes a JSON document to stdout (or `--out FILE`) and a
one-line human summary to stderr.  Output is deterministic: keys sorted,
element lists sorted lexicographically.  The stdlib json writes the
document but for its row lists (class elements, basis terms), which are
spliced in as pieces of up to 256 rows.  A row list comes in one of two
forms.  Byte rows, one byte per value, come as blocks of bytes from where
they are built: a class's members sorted as bytes (a labelled class that
`sigma` builds holds them already), a basis element's terms picked out of
S_n in lex order (`hecke.ideal_sums`).  Each piece of them
is one repeated row text whose digits are scattered in column by column,
with no value handled in Python.  Rows of ints, which only a value
outside 0..255 or a row of length 0 needs, are joined over a bytes `%d`
template.  Each piece is written as it comes, and the whole is never
built; `basis` reads every ideal off one rank walk and picks each label's
terms as it is written, so no label's terms are held.  Exit codes:
0 success, 1 invalid input, a degree or class size beyond its soft limit
without --force, or stdout closed by its reader before the document was
written (quietly, as in `| head`), 2 verification failure or internal
invariant violated (`InvariantError`).
Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice
from typing import Iterator

from . import (
    compositions, counting, cyclic_shift, hecke, permutations, stair_classes,
    verify,
)
from .errors import DegreeLimitError, InvariantError

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


_ROWS_PER_PIECE = 256           # rows joined into one piece
# the stdlib's stand-in for a row list; a str that can be encoded as UTF-8
# holds no lone surrogate, so it cannot hold this one
_HELD = "\udc00heckezero rows\udc00"
_HELD_TEXT = json.dumps(_HELD)
# each byte value's decimal digits by place, hundreds, tens and units, with
# 0 for a place above the top digit
_PLACES = [*map(bytes, zip(*(str(v).rjust(3, "\0").encode()
                              for v in range(256))))]


class _Rows:
    """Rows of one length, such as permutations, written as the list of
    their lists without building them.  With `size` 0, `rows` yields
    tuples of ints; with `size` > 0, it yields blocks of bytes, each of
    whole rows of `size` byte values."""

    __slots__ = ("rows", "size")

    def __init__(self, rows, size: int = 0) -> None:
        self.rows, self.size = rows, size


class _Terms(_Rows):
    """The terms of a Hecke element that all have the coefficient `c`,
    words in lexicographic order in either form of `_Rows`, written as the
    list of objects {"c": c, "w": w} without building them."""

    __slots__ = ("c",)

    def __init__(self, rows, c: int, size: int = 0) -> None:
        self.rows, self.c, self.size = rows, c, size


def _row_chunks(held: _Rows, indent: str) -> Iterator[str]:
    """The rows of `held`, on a line indented by `indent`, as `json.dumps`
    writes the lists or objects they stand for: pieces of up to
    `_ROWS_PER_PIECE` rows, read back as text from bytes (JSON numbers are
    ASCII).  A piece of byte rows is written by column scatter: the row
    text with W slots per value, W the digit width of its largest value,
    repeated once per row, and each place of each column filled by one
    strided slice from one `translate` of the piece; the 0 bytes of the
    places above a value's top digit are then dropped.  A piece of tuples
    is one join over one bytes `%d` template.  The coefficient is written
    into the row text.  Every tuple must hold exact ints and the
    coefficient be an exact int, as all the commands write (`%d` would
    write True as 1).
    """
    terms = isinstance(held, _Terms)
    size = held.size
    if size:
        step = size * _ROWS_PER_PIECE
        pieces = (block[at:at + step] for block in held.rows
                  for at in range(0, len(block), step))
    else:
        rows = iter(held.rows)
        pieces = iter(lambda: list(islice(rows, _ROWS_PER_PIECE)), [])
    first = next(pieces, None)          # () is a row, [()] is not empty
    if first is None:
        yield "[]"
        return
    if not size:
        size = len(first[0])
    inner = indent + "  "       # the lines of the rows
    member = inner + "  " if terms else inner   # the brackets of each word
    entry = member + "  "                       # the values of each word
    row = ("[" + entry + ("," + entry).join(("%d",) * size) + member + "]"
           if size else "[]")
    if terms:
        row = ("{" + member + '"c": %d,' % held.c + member + '"w": ' + row
               + inner + "}")
    row = ("," + inner + row).encode()  # the first piece opens with "["
    # the first value's slot; each next one is a separator and entry later
    start, skip = row.find(b"%d"), len(entry) + 1
    opening = ord("[")
    for piece in chain((first,), pieces):
        if not held.size:
            text = bytearray().join(map(row.__mod__, piece))
        else:
            width = (1 if not piece.translate(None, bytes(range(10))) else
                     2 if not piece.translate(None, bytes(range(100))) else 3)
            unit = row.replace(b"%d", b"\1" * width)
            text = bytearray(unit) * (len(piece) // size)
            for slot, table in enumerate(_PLACES[3 - width:], start):
                digits = piece.translate(table)
                for col in range(size):
                    text[slot + col * (skip + width)::len(unit)] = (
                        digits[col::size])
            if width > 1:
                text = text.replace(b"\0", b"")
        text[0] = opening
        opening = ord(",")
        yield text.decode()
    yield indent + "]"


def _json_chunks(doc) -> Iterator[str]:
    """`doc` as `json.dumps` writes it with sorted keys and an indent of
    two spaces, in pieces.  The stdlib writes the text with the string
    `_HELD` in place of each `_Rows` or `_Terms`; the text is split there,
    and the rows go into the gaps as `_row_chunks` writes them."""
    held = []

    def hold(value):
        if not isinstance(value, _Rows):
            raise TypeError(f"cannot write {type(value).__name__} as JSON")
        held.append(value)
        return _HELD

    text = json.dumps(doc, indent=2, sort_keys=True, default=hold)
    parts = text.split(_HELD_TEXT)
    if len(parts) != len(held) + 1:
        raise InvariantError("a string of the document holds the row marker")
    for part, rows in zip(parts, held):
        if part:
            yield part
        line = part[part.rfind("\n") + 1:]
        indent = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        yield from _row_chunks(rows, indent)
    if parts[-1]:
        yield parts[-1]


def _write(fh, doc) -> None:
    """Write `doc` as JSON and a newline to `fh`, one piece at a time."""
    for piece in _json_chunks(doc):
        fh.write(piece)
    fh.write("\n")


def _emit(doc, args, summary: str) -> None:
    """Write `doc` as JSON, piece by piece, to `--out` or stdout."""
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
    """The entry of one class, its members sorted.  When every value fits
    a byte (degree 1 to 255) they are sorted as byte rows, whose order is
    the order of the tuples for rows of one length, and written as byte
    rows: the rows of a class that `sigma_class` built, which holds them,
    or the bytes of each tuple."""
    rows = cls._rows
    n = len(rows[0]) if rows else len(next(iter(cls.elements)))
    if 0 < n < 256:
        flat = b"".join(sorted(rows or map(bytes, cls.elements)))
        rep, rows = list(flat[:n]), _Rows((flat,), n)
    else:
        elements = cls.sorted_elements()
        rep, rows = list(elements[0]), _Rows(elements)
    return {
        "alpha": list(cls.alpha) if cls.alpha is not None else None,
        "length": cls.common_length,
        "size": cls.size,
        "rep": rep,
        "elements": rows,
    }


def _cmd_classes(args) -> int:
    if args.twist == "id" and args.stratum == "max":
        labelled = cyclic_shift.label_max_classes(args.n, force=args.force)
        classes = sorted(labelled.values(), key=lambda c: c.min_element)
    else:
        classes = cyclic_shift.equiv_classes(args.n, args.twist, args.stratum,
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
    cls = stair_classes.sigma_class(alpha, force=args.force)
    doc = _class_entry(cls)
    _emit(doc, args,
          f"class of {alpha}: {cls.size} elements of length {cls.common_length}")
    return 0


def _cmd_stairform(args) -> int:
    alpha = _parse_alpha(args.alpha)
    sf = permutations.stair_form(alpha)
    doc = {
        "alpha": list(alpha),
        "one_line": list(sf),
        "cycles": permutations.cycle_string(sf),
        "maximal": compositions.is_maximal(alpha),
    }
    _emit(doc, args, f"stair form of {alpha}: {doc['cycles']}")
    return 0


def _cmd_dim(args) -> int:
    value = counting.dim_center(args.n)
    _emit(value, args, f"dim of the center at n={args.n}: {value}")
    return 0


def _cmd_count(args) -> int:
    alpha = _parse_alpha(args.alpha)
    # the class is gated by its predicted size before the formula is
    # evaluated, which for a huge label is a huge power
    enumerated = stair_classes.sigma_class(alpha, force=args.force).size
    formula = counting.size_sigma_formula(alpha)
    doc = {"alpha": list(alpha), "formula": formula, "enumerated": enumerated}
    _emit(doc, args,
          f"size of the class of {alpha}: formula={formula} "
          f"enumerated={enumerated}")
    return 0


def _cmd_basis(args) -> int:
    cyclic_shift._check_degree(args.n, args.force)
    one = args.alpha is not None
    alphas = ([_parse_alpha(args.alpha)] if one
              else compositions.enumerate_maximal(args.n, args.force))
    # S_0's one term is a row of no bytes, so it is written as a tuple
    entries = [{"alpha": list(alpha), "ideal_size": size,
                "terms": _Terms(terms.blocks(), 1, args.n) if args.n
                else _Terms(terms, 1)} for alpha, (size, terms)
               in zip(alphas, hecke.ideal_sums(alphas, args.n, args.force))]
    if one:
        _emit(entries[0], args, f"basis element of {alphas[0]}: "
              f"{entries[0]['ideal_size']} terms")
        return 0
    dim = counting.dim_center(args.n)
    _emit({"n": args.n, "dim": dim, "elements": entries}, args,
          f"center basis at n={args.n}: {dim} elements")
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_suites(args.n, args.suite, force=args.force)
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
        hint = " (the --force flag)" if isinstance(exc, DegreeLimitError) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
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
