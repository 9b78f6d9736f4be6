"""Command-line front end.

Subcommands parse circuit files, evaluate and compare denotations, and
print exact tables.  Output is deterministic: identical inputs give
byte-identical bytes, so every command is safe to pin in golden tests.

Exit status: 0 on success (typechecks, equal, verdict consistent with
negligible decay); 1 on a definite negative answer, which includes an
inconclusive series verdict (``series`` only exits 0 when the verdict
is positive); 2 on usage, parse, and type errors, and, through the
``run`` entry point of the ``pbc`` command, on any internal error.
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
from .iteration import K_TEST, EqualUpTo, star_equiv_bounded
from .normalform import decide_equal, nf_pretty, normalize
from .objects import is_star_free, object_normalize, obj_to_str
from .parser import PBCSyntaxError, parse_circuit, parse_term
from .semantics import StochMap, denote, hom_distance, map_to_tsv
from .terms import (
    COIN,
    GEN_NAMES,
    Gen,
    Id,
    Par,
    PBCError,
    Seq,
    Swap,
    TauStar,
    Term,
    iterates,
    typecheck,
)

__all__ = ["main", "run", "emit_dot"]


class _CliError(Exception):
    """Usage-level problem; reported on stderr with exit status 2."""


# ---------------------------------------------------------------------------
# Flag parsing helpers.

_K_RE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")


def _parse_k(text: str) -> tuple[int, int]:
    """Inclusive size range from ``K`` or ``LO..HI``."""
    m = _K_RE.match(text)
    if not m:
        raise _CliError(f"bad --k value {text!r}: expected K or LO..HI")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) is not None else lo
    if hi < lo:
        raise _CliError(f"bad --k range {text!r}: upper end below lower")
    return lo, hi


def _parse_single_k(text: str, flag_home: str) -> int:
    lo, hi = _parse_k(text)
    if lo != hi:
        raise _CliError(f"{flag_home} takes a single --k, not a range")
    return lo


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _CliError(f"bad rational {text!r}: expected N or N/D") from None


def _load_term(path: str) -> Term:
    """Parse a file as a circuit (``let``/``main``) or as a bare term."""
    try:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as err:
        raise _CliError(str(err)) from None
    try:
        if re.search(r"\b(let|main)\b", source):
            return parse_circuit(source)
        return parse_term(source)
    except PBCSyntaxError as err:
        raise _CliError(f"{path}: {err}") from None


def _load_typed(path: str):
    term = _load_term(path)
    try:
        return term, typecheck(term)
    except PBCError as err:
        raise _CliError(f"{path}: {err}") from None


def _require_same_type(left_path, left_j, right_path, right_j):
    if (left_j.domain, left_j.codomain) != (right_j.domain, right_j.codomain):
        raise _CliError(
            f"type mismatch: {left_path} is {left_j} "
            f"but {right_path} is {right_j}")


def _is_parametric(term, judgement) -> bool:
    """Needs a size before it can be run directly."""
    return iterates(term) or not (
        is_star_free(judgement.domain) and is_star_free(judgement.codomain))


def _dec(x: Fraction) -> str:
    return repr(x.numerator / x.denominator)


def _frac_str(x: Fraction, decimal: bool) -> str:
    text = f"{x.numerator}/{x.denominator}"
    return f"{text}\t{_dec(x)}" if decimal else text


def _tsv(f: StochMap, decimal: bool) -> str:
    text = map_to_tsv(f)
    if not decimal:
        return text
    lines = text.splitlines()
    out = [lines[0] + "\tprob_dec"]
    for line in lines[1:]:
        prob = Fraction(line.rsplit("\t", 1)[1])
        out.append(f"{line}\t{_dec(prob)}")
    return "\n".join(out) + "\n"


def _csv_with_decimal(text: str) -> str:
    """Append rounded columns to the data rows of a series CSV."""
    out = []
    for line in text.splitlines():
        if line.startswith("k,"):
            out.append(line + ",d_dec,scaled_dec")
            continue
        fields = line.split(",")
        if len(fields) == 5 and fields[0].isdigit():
            _, dn, dd, sn, sd = fields
            d = Fraction(int(dn), int(dd))
            s = Fraction(int(sn), int(sd))
            out.append(f"{line},{_dec(d)},{_dec(s)}")
        else:
            out.append(line)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Dot export.

def _atoms(obj) -> int:
    return len(object_normalize(obj))


def _gen_label(g: Gen) -> str:
    if g.kind == COIN:
        return f"coin({g.p.numerator}/{g.p.denominator})"
    return f"{GEN_NAMES[g.kind]}<{obj_to_str(g.at)}>"


class _DotState:
    """Accumulates node and edge lines in traversal order."""

    def __init__(self):
        self.nodes: list[str] = []
        self.edges: list[str] = []
        self.n_nodes = 0
        self.n_clusters = 0
        self.indent = 1

    def fresh_node(self) -> str:
        name = f"n{self.n_nodes}"
        self.n_nodes += 1
        return name

    def fresh_cluster(self) -> str:
        name = f"cluster{self.n_clusters}"
        self.n_clusters += 1
        return name

    def put(self, text: str):
        self.nodes.append("  " * self.indent + text)

    def edge(self, sources, target: str, port: int, target_arity: int):
        """One wire into ``target``; a thick (stream) wire may carry
        several producers, giving one edge per producer."""
        for node, out_port, out_arity in sources:
            attrs = []
            if out_arity > 1:
                attrs.append(f'taillabel="{out_port}"')
            if target_arity > 1:
                attrs.append(f'headlabel="{port}"')
            suffix = f" [{', '.join(attrs)}]" if attrs else ""
            self.edges.append(f"  {node} -> {target}{suffix};")


def _dot_emit(st: _DotState, term: Term, ins: list) -> list:
    """Wire a subterm.

    ``ins`` holds one entry per domain atom; each entry is a tuple of
    (node, out_port, out_arity) producers.  Star wires entering an
    iteration fan out to every port of the block they stand for, so an
    entry can carry more than one producer on the way back out.
    """
    if isinstance(term, Id):
        return ins
    if isinstance(term, Swap):
        w = _atoms(term.left)
        return ins[w:] + ins[:w]
    if isinstance(term, Gen):
        node = st.fresh_node()
        st.put(f'{node} [label="{_gen_label(term)}"];')
        for port, src in enumerate(ins):
            st.edge(src, node, port, len(ins))
        out_n = _atoms(typecheck(term).codomain)
        return [((node, port, out_n),) for port in range(out_n)]
    if isinstance(term, Seq):
        return _dot_emit(st, term.second, _dot_emit(st, term.first, ins))
    if isinstance(term, Par):
        w = _atoms(typecheck(term.left).domain)
        left_out = _dot_emit(st, term.left, ins[:w])
        right_out = _dot_emit(st, term.right, ins[w:])
        return left_out + right_out
    if isinstance(term, TauStar):
        name = st.fresh_cluster()
        in_words = ", ".join(obj_to_str(b) for b in term.inputs)
        out_words = ", ".join(obj_to_str(b) for b in term.outputs)
        label = (f"iter[{obj_to_str(term.state)}; "
                 f"({in_words}); ({out_words})] ^*")
        st.put(f"subgraph {name} {{")
        st.indent += 1
        st.put(f'label="{label}";')
        sw = _atoms(term.state)
        body_ins = list(ins[:sw])
        for entry, block in zip(ins[sw:], term.inputs):
            body_ins.extend([entry] * _atoms(block))
        body_outs = _dot_emit(st, term.body, body_ins)
        st.indent -= 1
        st.put("}")
        outs = []
        pos = 0
        for block in term.outputs:
            c = _atoms(block)
            outs.append(tuple(p for entry in body_outs[pos:pos + c]
                              for p in entry))
            pos += c
        outs.extend(body_outs[pos:])
        return outs
    raise PBCError(f"not a term: {term!r}")


def emit_dot(t: Term) -> str:
    """Deterministic Graphviz text: one box per generator, read left to
    right; iterations appear as clusters labelled with the star marker.
    Wires into and out of an iteration's starred streams are drawn once
    per block port, standing in for the whole stream."""
    judgement = typecheck(t)
    st = _DotState()
    ins = []
    for i in range(_atoms(judgement.domain)):
        st.put(f"i{i} [shape=point];")
        ins.append(((f"i{i}", 0, 1),))
    outs = _dot_emit(st, t, ins)
    for i, entry in enumerate(outs):
        st.put(f"o{i} [shape=point];")
        st.edge(entry, f"o{i}", 0, 1)
    lines = [
        "digraph circuit {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    lines.extend(st.nodes)
    lines.extend(st.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_check(args) -> int:
    _, judgement = _load_typed(args.file)
    print(judgement)
    return 0


def _cmd_eval(args) -> int:
    term, _ = _load_typed(args.file)
    k = None if args.k is None else _parse_single_k(args.k, "eval")
    sys.stdout.write(_tsv(denote(term, k), args.decimal))
    return 0


def _cmd_normalize(args) -> int:
    term, _ = _load_typed(args.file)
    print(nf_pretty(normalize(term)))
    return 0


def _cmd_eq(args) -> int:
    s, js = _load_typed(args.left)
    t, jt = _load_typed(args.right)
    _require_same_type(args.left, js, args.right, jt)
    if not (_is_parametric(s, js) or _is_parametric(t, jt)):
        if decide_equal(s, t):
            print("EQUAL")
            return 0
        print("NOT EQUAL")
        return 1
    k_max = (K_TEST if args.k is None
             else _parse_single_k(args.k, "eq"))
    verdict = star_equiv_bounded(s, t, k_max=k_max)
    if isinstance(verdict, EqualUpTo):
        print(f"EQUAL (every size k = 0..{verdict.k_max})")
        return 0
    bits = (format(verdict.input_value, f"0{verdict.in_arity}b")
            if verdict.in_arity else "-")
    print(f"NOT EQUAL at k={verdict.k}, input {bits}")
    return 1


def _cmd_dist(args) -> int:
    s, js = _load_typed(args.left)
    t, jt = _load_typed(args.right)
    _require_same_type(args.left, js, args.right, jt)
    parametric = _is_parametric(s, js) or _is_parametric(t, jt)
    if args.k is None:
        if parametric:
            raise _CliError(
                "parametric terms need a size: pass --k K or --k LO..HI")
        print(_frac_str(hom_distance(denote(s), denote(t)), args.decimal))
        return 0
    lo, hi = _parse_k(args.k)
    for k, d in distance_series(s, t, lo, hi, args.left, args.right).pairs:
        prefix = "" if lo == hi else f"{k}\t"
        print(prefix + _frac_str(d, args.decimal))
    return 0


def _cmd_series(args) -> int:
    s, js = _load_typed(args.left)
    t, jt = _load_typed(args.right)
    _require_same_type(args.left, js, args.right, jt)
    lo, hi = _parse_k(args.k)
    series = distance_series(
        s, t, lo, hi,
        f_label=os.path.basename(args.left),
        g_label=os.path.basename(args.right))
    report = negligibility_report(series, args.a, _parse_fraction(args.eps))
    text = report_to_csv(report)
    if args.decimal:
        text = _csv_with_decimal(text)
    sys.stdout.write(text)
    return 0 if report.verdict == CONSISTENT else 1


def _cmd_demo(args) -> int:
    p = None if args.p is None else _parse_fraction(args.p)
    if args.k is None:
        k_max = 10
    elif ".." in args.k:
        lo, k_max = _parse_k(args.k)
        if lo != 0:
            raise _CliError("demo series start at 0; use --k 0..H or --k H")
    else:
        k_max = _parse_single_k(args.k, "demo")
    report = lemma_demo(args.name, k_max=k_max, p=p)
    if isinstance(report, EqualityReport):
        lines = ["k,d_num,d_den"]
        for k, d in report.series.pairs:
            lines.append(f"{k},{d.numerator},{d.denominator}")
        lines.append(f"exact_equality={'yes' if report.exact else 'no'}")
        print("\n".join(lines))
        return 0 if report.exact else 1
    sys.stdout.write(report_to_csv(report))
    return 0 if report.verdict == CONSISTENT else 1


def _cmd_dot(args) -> int:
    term, _ = _load_typed(args.file)
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
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.cmd](args)
    except _CliError as err:
        print(f"pbc: {err}", file=sys.stderr)
        return 2
    except PBCError as err:
        print(f"pbc: {err}", file=sys.stderr)
        return 2


def run(argv=None) -> int:
    """Entry point of the ``pbc`` command.

    Runs ``main`` and maps any exception it lets through, such as a
    RecursionError, to one ``pbc: internal error`` line and exit status
    2, so that a crash never reads as exit 1, a definite negative.
    In-process callers of ``main`` still see the exception itself.
    """
    try:
        return main(argv)
    except Exception as err:
        print(f"pbc: internal error: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
