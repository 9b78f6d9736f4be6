"""The four benchmark workloads: inputs, operations and output checks.

Set-up builds every input term in-process, writes it as a ``.pbc`` file
(``main = <pretty_term>``) and checks that the file parses back to the
same term.  The operations then hand the program only those files: CLI
commands run in-process through ``pbc.cli.main(argv)``; certificates,
which have no CLI command, call ``synthesize_tight_derivation`` and
``check_derivation`` on the parsed files.

An item is the unit of work the benchmark repeats and times: one pass
of the two commands on the iteration workloads, one input pair with all
its operations on ``certify`` and ``eq-wide``.  Each item carries checks
that do not depend on the seed; ``expected.json`` adds the stdout digest
and exit code of every operation at seed 0.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import pbc
import pbc.cli
import pbc.parser
import pbc.proofs
import pbc.semantics
from pbc import Gen, Par, Seq, axiom_corpus, coin, combinators as C, par, pretty_term

from circuitgen import random_circuit

# CPU-time limit on each operation over a fair-coin word.  While the
# normal-form spine is built recursively in quadratic time (ROADMAP item
# 4), words of 10 or more coins fail with RecursionError only after up
# to ten seconds; the limit counts them failed after one second, which
# keeps the four words inside one run.  The one operation there that
# succeeds (normalize on 9 coins) takes 0.4 s, and a spine built in
# linear time needs far less even at 12 coins.
COIN_WORD_LIMIT_S = 1.0


class SetupError(Exception):
    """An input could not be built or does not round-trip."""


@dataclass
class Op:
    """One operation: prints its output, returns its exit code."""

    id: str
    kind: str
    run: Callable[[dict], int]
    codes: tuple = (0,)  # exit codes a correct run may give
    limit_s: float | None = None  # CPU seconds before the op counts failed


@dataclass
class Item:
    name: str
    ops: list
    # (outputs by op kind, exit codes by op kind) -> {op kind: problem}
    check: Callable[[dict, dict], dict]


@dataclass
class Workload:
    """``once`` items open every run, exactly once; ``items`` then repeat
    in order until the run's time is up."""

    name: str
    items: list
    once: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Operations.

def _cli(argv):
    def run(ctx):
        return pbc.cli.main(list(argv))
    return run


def _read_term(path):
    with open(path, encoding="utf-8") as fh:
        return pbc.parser.parse_circuit(fh.read())


def _synth(left, right):
    def run(ctx):
        d = pbc.proofs.synthesize_tight_derivation(
            _read_term(left), _read_term(right))
        ctx["derivation"] = d
        print(pbc.proofs.serialize_derivation(d))
        return 0
    return run


def _check_cert(ctx):
    bound = pbc.proofs.check_derivation(ctx["derivation"])
    print(f"{bound.numerator}/{bound.denominator}")
    return 0


def _write(workdir, name, term) -> str:
    """Write a term as a circuit file and check that it parses back."""
    text = f"main = {pretty_term(term)}\n"
    if pbc.parser.parse_circuit(text) != term:
        raise SetupError(f"{name}: pretty_term output does not round-trip")
    path = os.path.join(workdir, name + ".pbc")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# Output parsing for the cross-checks.  Each returns None on bad text.

_FRAC = re.compile(r"^(\d+)/(\d+)\n$")


def _fraction(text):
    m = _FRAC.match(text)
    return Fraction(int(m.group(1)), int(m.group(2))) if m else None


def _tsv_rows(text):
    """TSV from ``pbc eval`` as {input bits: {output bits: weight}}."""
    lines = text.splitlines()
    if not lines or lines[0] != "in\tout\tprob":
        return None
    rows: dict = {}
    for line in lines[1:]:
        i, o, p = line.split("\t")
        rows.setdefault(i, {})[o] = Fraction(p)
    return rows


def _tv_max(f, g):
    """Hom distance of two parsed TSV maps, computed here, not by pbc."""
    best = Fraction(0)
    for i in f.keys() | g.keys():
        a, b = f.get(i, {}), g.get(i, {})
        d = sum((abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()),
                Fraction(0)) / 2
        best = max(best, d)
    return best


def _series(text):
    """Rows (k, d) of a demo's CSV plus its verdict, or None."""
    lines = text.splitlines()
    if not lines or lines[0] != "k,d_num,d_den,scaled_num,scaled_den":
        return None
    pairs = []
    verdict = None
    for line in lines[1:]:
        if line.startswith("verdict="):
            verdict = line.split("=", 1)[1]
        elif line[:1].isdigit():
            k, dn, dd, _, _ = line.split(",")
            pairs.append((int(k), Fraction(int(dn), int(dd))))
    return pairs, verdict


def _demo_check(kind, k_max, law, exact):
    """The demo's series covers 0..k_max and keeps its closed-form law."""
    def check(out, code):
        if kind not in out:
            return {}
        parsed = _series(out[kind])
        if parsed is None:
            return {kind: "not a series CSV"}
        pairs, verdict = parsed
        if [k for k, _ in pairs] != list(range(k_max + 1)):
            return {kind: "wrong sizes"}
        for k, d in pairs:
            bad = (d != law(k)) if exact and k >= 1 else (d > law(k))
            if bad:
                return {kind: f"distance {d} at k={k} breaks the law"}
        if verdict != "ConsistentWithNegligible":
            return {kind: f"verdict {verdict}"}
        return {}
    return check


def _both(*checks):
    def check(out, code):
        problems = {}
        for c in checks:
            problems.update(c(out, code))
        return problems
    return check


# ---------------------------------------------------------------------------
# iter-wide and iter-input-free.

def _iter_wide(workdir, seed):
    left = _write(workdir, "otp_star_lhs", C.otp_star_lhs())
    right = _write(workdir, "otp_star_rhs", C.otp_star_rhs())
    half = Fraction(1, 2)

    def otp_check(out, code):
        line = out.get("eq-otp-star")
        if line is not None and line != "EQUAL (every size k = 0..8)\n":
            return {"eq-otp-star": "OTP verdict line differs"}
        return {}

    item = Item("pass", [
        Op("iter-wide/demo-keyguess", "demo-keyguess",
           _cli(["demo", "keyguess", "--k", "8"])),
        Op("iter-wide/eq-otp-star", "eq-otp-star",
           _cli(["eq", left, right, "--k", "8"])),
    ], _both(_demo_check("demo-keyguess", 8, lambda k: half ** k, False),
             otp_check))
    return Workload("iter-wide", [item])


def _iter_input_free(workdir, seed):
    half = Fraction(1, 2)
    item = Item("pass", [
        Op("iter-input-free/demo-all1", "demo-all1",
           _cli(["demo", "all1", "--k", "14"])),
        Op("iter-input-free/demo-vonneumann", "demo-vonneumann",
           _cli(["demo", "vonneumann", "--k", "80"])),
    ], _both(_demo_check("demo-all1", 14, lambda k: half ** k, False),
             # |2p - 1|^k at the default p = 3/4, exact from k = 1 on
             _demo_check("demo-vonneumann", 80, lambda k: half ** k, True)))
    return Workload("iter-input-free", [item])


# ---------------------------------------------------------------------------
# certify.

CERTIFY_RANDOM_PAIRS = 40


def _verdict_check(out, code):
    """``eq`` says EQUAL exactly when ``dist`` prints 0."""
    if "eq" not in out or "dist" not in out:
        return {}
    d = _fraction(out["dist"])
    if d is None:
        return {"dist": "not an exact fraction"}
    verdict = {"EQUAL\n": 0, "NOT EQUAL\n": 1}.get(out["eq"])
    if verdict is None or verdict != code["eq"]:
        return {"eq": "verdict line and exit code disagree"}
    if (verdict == 0) != (d == 0):
        return {"eq": f"verdict {out['eq'].strip()} at distance {d}"}
    return {}


def _certify_check(equal):
    """Checks that need only the outputs at hand; a failed operation is
    already counted and leaves its part of the check out."""
    def check(out, code):
        problems = _verdict_check(out, code)
        if equal and code.get("eq", 0) != 0:
            problems["eq"] = "axiom pair is not EQUAL"
        d = _fraction(out.get("dist", ""))
        if problems or d is None:
            return problems
        if "eval-lhs" in out and "eval-rhs" in out:
            left, right = _tsv_rows(out["eval-lhs"]), _tsv_rows(out["eval-rhs"])
            if left is None or right is None:
                return {"eval-lhs": "not a TSV map"}
            if _tv_max(left, right) != d:
                return {"dist": "differs from the distance of the eval tables"}
        if "synth" in out:
            root = out["synth"].split("\n", 1)[0].rsplit(" ", 1)[-1]
            if _fraction(root + "\n") != d:
                return {"synth": f"certificate bound {root} differs from {d}"}
        if "check" in out and _fraction(out["check"]) != d:
            return {"check": "checked bound differs from the distance"}
        return {}
    return check


def _size_key(term):
    """(fair-ish coins, generators): a cost proxy read off the syntax.
    Each coin of bias strictly between 0 and 1 can double the support."""
    coins = gens = 0
    todo = [term]
    while todo:
        t = todo.pop()
        if isinstance(t, Seq):
            todo += (t.first, t.second)
        elif isinstance(t, Par):
            todo += (t.left, t.right)
        elif isinstance(t, Gen):
            gens += 1
            coins += t.p is not None and 0 < t.p < 1
    return coins, gens


def _spread_order(n):
    """0..n-1 in van der Corput order: every prefix spans the range."""
    bits = max(1, (n - 1).bit_length())
    keys = sorted(range(1 << bits),
                  key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
    return [i for i in keys if i < n]


def _stratified(count, make):
    """``count`` circuits at evenly spaced size ranks of a seeded pool
    eight times larger, in an order whose every prefix covers small and
    large alike.  Every seed then gets a like mix of sizes, so metrics
    move with the program, not with the draw."""
    pool = sorted((make() for _ in range(count * 8)), key=_size_key)
    step = len(pool) / count
    chosen = [pool[int((j + 0.5) * step)] for j in range(count)]
    return [chosen[i] for i in _spread_order(count)]


def _by_support(quotas, make):
    """Draw circuits until each output-support class holds its quota;
    returns the circuits, smallest class first.

    ``quotas`` lists (largest support in the class, count); draws above
    the last class are passed over.  Support is the most weights in any
    row of the circuit's map, as ``pbc`` computes it.  A circuit with c
    coins of bias strictly between 0 and 1 has support at most 2^c, so
    one that cannot reach an unfilled class is passed over unevaluated.
    """
    classes = [[] for _ in quotas]
    lows = [1] + [bound + 1 for bound, _ in quotas[:-1]]
    while True:
        open_lows = [low for low, c, (_, n) in zip(lows, classes, quotas)
                     if len(c) < n]
        if not open_lows:
            return [t for c in classes for t in c]
        term = make()
        if 2 ** _size_key(term)[0] < min(open_lows):
            continue
        support = max(len(row) for row in pbc.semantics.denote(term).rows)
        for c, (bound, n) in zip(classes, quotas):
            if support <= bound:
                if len(c) < n:
                    c.append(term)
                break


def _pair_ops(prefix, left, right, kinds):
    ops = {
        "eq": Op(f"{prefix}/eq", "eq", _cli(["eq", left, right]), (0, 1)),
        "dist": Op(f"{prefix}/dist", "dist", _cli(["dist", left, right])),
        "eval-lhs": Op(f"{prefix}/eval-lhs", "eval-lhs", _cli(["eval", left])),
        "eval-rhs": Op(f"{prefix}/eval-rhs", "eval-rhs", _cli(["eval", right])),
        "normalize-lhs": Op(f"{prefix}/normalize-lhs", "normalize-lhs",
                            _cli(["normalize", left])),
        "normalize-rhs": Op(f"{prefix}/normalize-rhs", "normalize-rhs",
                            _cli(["normalize", right])),
        "synth": Op(f"{prefix}/synth", "synth", _synth(left, right)),
        "check": Op(f"{prefix}/check", "check", _check_cert),
    }
    return [ops[k] for k in kinds]


_CERTIFY_KINDS = ("eq", "dist", "eval-lhs", "eval-rhs", "synth", "check")


def _certify(workdir, seed):
    rng = random.Random(f"certify:{seed}")
    items = []
    for name, lhs, rhs in axiom_corpus():
        prefix = f"certify/axiom/{name}"
        left = _write(workdir, f"ax_{name}_l", lhs)
        right = _write(workdir, f"ax_{name}_r", rhs)
        items.append(Item(prefix, _pair_ops(prefix, left, right,
                                            _CERTIFY_KINDS),
                          _certify_check(equal=True)))
    circuits = _stratified(2 * CERTIFY_RANDOM_PAIRS, lambda: random_circuit(
        rng, 3, 3, max_gens=20, max_wires=6, max_den=8))
    randoms = []
    for i in range(CERTIFY_RANDOM_PAIRS):
        lhs, rhs = circuits[2 * i], circuits[2 * i + 1]
        prefix = f"certify/s{seed}/r{i:02d}"
        left = _write(workdir, f"r{i:02d}_l", lhs)
        right = _write(workdir, f"r{i:02d}_r", rhs)
        randoms.append(Item(prefix, _pair_ops(prefix, left, right,
                                              _CERTIFY_KINDS),
                            _certify_check(equal=False)))
    # Axioms and random pairs alternate while both last.
    order = [x for pair in zip(items, randoms) for x in pair]
    order += items[len(randoms):] + randoms[len(items):]
    return Workload("certify", order)


# ---------------------------------------------------------------------------
# eq-wide.

# How many random circuits each seed draws per output-support class,
# given by the largest support in the class.  Fair-ish coins double the
# support, so supports sit mostly at powers of two; a large draw shows
# about 67% up to 32, 28% up to 128, 2.5% up to 256 and 2% above.  Cost
# grows with support, so a fixed count per class keeps the work alike
# across seeds.  Draws above 256 are passed over: those of 512 and more
# fail (ROADMAP item 4) exactly as the coin words of 9 and more coins
# do, and the coin words, in every run, keep that failure count fixed.
EQ_WIDE_SUPPORT_QUOTAS = ((4, 2), (8, 2), (16, 4), (32, 6), (64, 4), (128, 4),
                          (256, 2))
COIN_WORDS = (9, 10, 11, 12)


def _uniform_nf_text(n):
    """``pbc normalize`` text of n fair coins, derived here from the
    normal-form definition: heads ascend, each weighted by what is left."""
    size = 1 << n
    lines = [f"1/{size - i} |{i:0{n}b}>" for i in range(size - 1)]
    lines.append(f"|{size - 1:0{n}b}>")
    return "\n".join(lines) + "\n"


def _eq_wide_check(identical, nf_text=None):
    def check(out, code):
        problems = _verdict_check(out, code)
        left = out.get("normalize-lhs")
        right = out.get("normalize-rhs", left)
        if nf_text is not None and left is not None and left != nf_text:
            problems["normalize-lhs"] = "not the uniform normal form"
        if "eq" in code:
            equal = code["eq"] == 0
            if identical and not equal:
                problems["eq"] = "identical files are not EQUAL"
            elif left is not None and right is not None and (left == right) != equal:
                problems["normalize-rhs"] = "normal forms disagree with the verdict"
        return problems
    return check


_EQ_KINDS = ("eq", "dist", "normalize-lhs", "normalize-rhs")


def _eq_wide(workdir, seed):
    rng = random.Random(f"eq-wide:{seed}")
    once = []
    for n in COIN_WORDS:
        path = _write(workdir, f"coins{n}", par(*[coin(Fraction(1, 2))] * n))
        prefix = f"eq-wide/coins{n}"
        ops = _pair_ops(prefix, path, path, ("eq", "dist", "normalize-lhs"))
        for op in ops:
            op.limit_s = COIN_WORD_LIMIT_S
        once.append(Item(prefix, ops, _eq_wide_check(True, _uniform_nf_text(n))))
    ranked = _by_support(EQ_WIDE_SUPPORT_QUOTAS, lambda: random_circuit(
        rng, 2, 10, max_gens=40, max_wires=12, max_den=8))
    circuits = [ranked[i] for i in _spread_order(len(ranked))]
    paths = [_write(workdir, f"w{i:02d}", t) for i, t in enumerate(circuits)]
    items = []
    for i, (term, left) in enumerate(zip(circuits, paths)):
        prefix = f"eq-wide/s{seed}/w{i:02d}"
        if i + 1 < len(paths):
            items.append(Item(prefix + "/next",
                              _pair_ops(prefix + "/next", left, paths[i + 1],
                                        _EQ_KINDS),
                              _eq_wide_check(False)))
        copy = _write(workdir, f"w{i:02d}_copy", term)
        items.append(Item(prefix + "/copy",
                          _pair_ops(prefix + "/copy", left, copy, _EQ_KINDS),
                          _eq_wide_check(True)))
    return Workload("eq-wide", items, once)


_BUILDERS = {
    "iter-wide": _iter_wide,
    "iter-input-free": _iter_input_free,
    "certify": _certify,
    "eq-wide": _eq_wide,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Build one workload's inputs under ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[name](workdir, seed)
