"""Command-line front end: the ``pbc`` command.

Subcommands parse circuit files, evaluate and compare denotations, and
print exact tables.  Output is deterministic: identical inputs give
byte-identical bytes, so every command is safe to pin in golden tests.

Exit status: 0 on success (typechecks, equal, verdict consistent with
negligible decay); 1 on a definite negative answer, which includes an
inconclusive series verdict (``series`` only exits 0 when the verdict
is positive); 2 on usage, parse, and type errors, and on any internal
error, so a crash never reads as a negative answer.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction

from .asymptotics import (
    CONSISTENT,
    EqualityReport,
    distance_series,
    lemma_demo,
    negligibility_report,
    report_to_csv,
)
from .dot import emit_dot
from .iteration import K_TEST, EqualUpTo, star_equiv_bounded
from .normalform import _rows_pretty, decide_equal
from .parser import parse_circuit
from .semantics import Series, StochMap, bit_string, denote, map_to_tsv
from .terms import PBCError, same_type, typecheck

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Flag parsing helpers.

_K_RE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")


def _parse_k(text: str) -> tuple[int, int]:
    """Inclusive size range from ``K`` or ``LO..HI``."""
    m = _K_RE.match(text)
    if not m:
        raise PBCError(f"bad --k value {text!r}: expected K or LO..HI")
    try:
        lo = int(m.group(1))
        hi = int(m.group(2)) if m.group(2) is not None else lo
    except ValueError:  # past the interpreter's digit limit
        raise PBCError("bad --k value: too many digits") from None
    if hi < lo:
        raise PBCError(f"bad --k range {text!r}: upper end below lower")
    return lo, hi


def _parse_single_k(text: str, flag_home: str) -> int:
    lo, hi = _parse_k(text)
    if lo != hi:
        raise PBCError(f"{flag_home} takes a single --k, not a range")
    return lo


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PBCError(f"bad rational {text!r}: expected N or N/D") from None


def _load(path: str):
    """Parse and typecheck a circuit file; errors name the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as err:
        raise PBCError(str(err)) from None
    except UnicodeDecodeError as err:
        raise PBCError(f"{path}: {err}") from None
    try:
        term = parse_circuit(source)
        return term, typecheck(term)
    except PBCError as err:
        raise PBCError(f"{path}: {err}") from None


def _load_pair(args):
    """The two files a comparison reads, which must share a type, and
    the judgement of that type, which iterates when either term does."""
    s, js = _load(args.left)
    t, jt = _load(args.right)
    if js != jt:
        raise PBCError(
            f"type mismatch: {args.left} is {js} but {args.right} is {jt}")
    return s, t, same_type(s, t)


def _dec(x: Fraction) -> str:
    try:
        return repr(x.numerator / x.denominator)
    except OverflowError:  # above the float range; no value is negative
        return "inf"


def _frac_str(x: Fraction, decimal: bool) -> str:
    text = f"{x.numerator}/{x.denominator}"
    return f"{text}\t{_dec(x)}" if decimal else text


def _add_columns(text: str, cols: list) -> str:
    """Each of ``cols`` appended to its line of ``text``, from the first."""
    lines = text.splitlines()
    return "\n".join([line + col for line, col in zip(lines, cols)]
                     + lines[len(cols):]) + "\n"


def _tsv(f: StochMap, decimal: bool) -> str:
    """``map_to_tsv``, with the rounded weights, in its order, when
    ``decimal``."""
    text = map_to_tsv(f)
    if not decimal:
        return text
    return _add_columns(text, ["\tprob_dec"] + [
        f"\t{_dec(row[o])}" for row in f.rows for o in sorted(row)])


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_check(args) -> int:
    _, judgement = _load(args.file)
    print(judgement)
    return 0


def _cmd_eval(args) -> int:
    term, _ = _load(args.file)
    k = None if args.k is None else _parse_single_k(args.k, "eval")
    sys.stdout.write(_tsv(denote(term, k), args.decimal))
    return 0


def _cmd_normalize(args) -> int:
    term, judgement = _load(args.file)
    if judgement.parametric:
        raise PBCError(
            f"{args.file}: normalize takes fixed-size terms, not one of "
            f"parametric type {judgement}; to instantiate it at a size, "
            "use eval --k K")
    # nf_pretty(normalize(term)), printed from the integer rows.
    print(_rows_pretty(*Series().rows(term)))
    return 0


def _cmd_eq(args) -> int:
    s, t, judgement = _load_pair(args)
    k_max = K_TEST if args.k is None else _parse_single_k(args.k, "eq")
    if not judgement.parametric:
        if decide_equal(s, t):
            print("EQUAL")
            return 0
        print("NOT EQUAL")
        return 1
    verdict = star_equiv_bounded(s, t, k_max=k_max)
    if isinstance(verdict, EqualUpTo):
        print(f"EQUAL (every size k = 0..{verdict.k_max})")
        return 0
    bits = bit_string(verdict.input_value, verdict.in_arity)
    print(f"NOT EQUAL at k={verdict.k}, input {bits}")
    return 1


def _cmd_dist(args) -> int:
    s, t, judgement = _load_pair(args)
    if args.k is None:
        if judgement.parametric:
            raise PBCError(
                "parametric terms need a size: pass --k K or --k LO..HI")
        print(_frac_str(Series().distance(s, t), args.decimal))
        return 0
    lo, hi = _parse_k(args.k)
    for k, d in distance_series(s, t, lo, hi, args.left, args.right).pairs:
        prefix = "" if lo == hi else f"{k}\t"
        print(prefix + _frac_str(d, args.decimal))
    return 0


def _cmd_series(args) -> int:
    s, t, _ = _load_pair(args)
    lo, hi = _parse_k(args.k)
    series = distance_series(
        s, t, lo, hi,
        f_label=os.path.basename(args.left),
        g_label=os.path.basename(args.right))
    report = negligibility_report(series, args.a, _parse_fraction(args.eps))
    text = report_to_csv(report)
    if args.decimal:
        text = _add_columns(text, [",d_dec,scaled_dec"] + [
            f",{_dec(d)},{_dec(scaled)}" for (_, d), (_, scaled)
            in zip(report.series.pairs, report.scaled)])
    sys.stdout.write(text)
    return 0 if report.verdict == CONSISTENT else 1


def _cmd_demo(args) -> int:
    p = None if args.p is None else _parse_fraction(args.p)
    if args.k is None:
        k_max = 10
    elif ".." in args.k:
        lo, k_max = _parse_k(args.k)
        if lo != 0:
            raise PBCError("demo series start at 0; use --k 0..H or --k H")
    else:
        k_max = _parse_single_k(args.k, "demo")
    report = lemma_demo(args.name, k_max=k_max, p=p)
    last = report.series.pairs[-1][0]
    if last < k_max:  # the demo's size cap
        print(f"pbc: {args.name} stops at size {last}", file=sys.stderr)
    if isinstance(report, EqualityReport):
        lines = ["k,d_num,d_den"]
        for k, d in report.series.pairs:
            lines.append(f"{k},{d.numerator},{d.denominator}")
        lines.append("exact_equality=yes")
        print("\n".join(lines))
        return 0
    sys.stdout.write(report_to_csv(report))
    return 0 if report.verdict == CONSISTENT else 1


def _cmd_dot(args) -> int:
    term, _ = _load(args.file)
    sys.stdout.write(emit_dot(term))
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "eval": _cmd_eval,
    "normalize": _cmd_normalize,
    "eq": _cmd_eq,
    "dist": _cmd_dist,
    "series": _cmd_series,
    "demo": _cmd_demo,
    "dot": _cmd_dot,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pbc",
        description="Probabilistic Boolean circuits: typecheck, evaluate, "
                    "compare, and report exact decay series.",
        epilog="exit status: 0 success or positive verdict; 1 definite "
               "negative or inconclusive verdict; 2 usage, parse, or type "
               "errors.  PBC_MAX_WIRES overrides the evaluator's wire "
               "guard.")
    sub = ap.add_subparsers(dest="cmd", required=True, metavar="COMMAND")

    p = sub.add_parser("check", help="typecheck a file, print its type")
    p.add_argument("file")

    p = sub.add_parser("eval", help="print the exact stochastic map as TSV")
    p.add_argument("file")
    p.add_argument("--k", help="evaluate at size K")
    p.add_argument("--decimal", action="store_true",
                   help="append a rounded column after the exact one")

    p = sub.add_parser("normalize", help="print the canonical choice tree")
    p.add_argument("file")

    p = sub.add_parser("eq", help="decide equality (bounded for iteration)")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--k", help=f"size bound for parametric terms "
                               f"(default {K_TEST})")

    p = sub.add_parser("dist", help="exact total-variation hom distance")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--k", help="size K, or LO..HI for one line per size")
    p.add_argument("--decimal", action="store_true",
                   help="append a rounded column after the exact one")

    p = sub.add_parser("series",
                       help="distance series with a decay verdict (CSV)")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--k", required=True, help="size range LO..HI")
    p.add_argument("--a", type=int, default=0,
                   help="scale distances by k^a (default 0)")
    p.add_argument("--eps", default="1/100",
                   help="threshold for the decay witness (default 1/100)")
    p.add_argument("--decimal", action="store_true",
                   help="append rounded columns after the exact ones")

    p = sub.add_parser("demo", help="run a packaged lemma demonstration")
    p.add_argument("name", help="otp, all1, keyguess, or vonneumann")
    p.add_argument("--p", help="bias for the demos that take one")
    p.add_argument("--k", help="top size H (or 0..H); default 10")

    p = sub.add_parser("dot", help="emit a Graphviz rendering of the term")
    p.add_argument("file")

    return ap


def main(argv=None) -> int:
    """Entry point of the ``pbc`` command and of ``python -m pbc.cli``.

    Runs one subcommand on ``argv`` (default: the process arguments)
    and returns its exit status.  A package error is reported as one
    ``pbc: <message>`` line on stderr, any other exception, such as a
    RecursionError, as one ``pbc: internal error`` line; both exit 2, so
    a crash never reads as exit 1, a definite negative.  Argument errors
    raise SystemExit(2) from argparse.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.cmd](args)
    except PBCError as err:
        print(f"pbc: {err}", file=sys.stderr)
    except Exception as err:
        print(f"pbc: internal error: {type(err).__name__}: {err}",
              file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
