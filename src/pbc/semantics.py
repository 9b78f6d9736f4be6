"""Exact probabilistic semantics over Boolean wires.

A morphism between star-free objects denotes a stochastic map: for every
input bitstring, a finitely supported distribution over output bitstrings
with exact rational weights.  Bitstrings are packed into ints; wire 1 is
the most significant bit, so sorting ints sorts bitstrings left to right.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from ._rows import (
    ZERO, WireLimitError, _concat, _fractions, _mix, _place, _plain,
    _support_error, _tv,
)
from .objects import bools, is_star_free, width
from .terms import (
    COIN, COPY, DISCARD, Gen, Id, PHI, Par, PBCError, Seq, Swap, TauStar,
    Term, TypeJudgement, exact_rational, factors, par, pop_term, push_term,
    same_type, typecheck,
)

__all__ = [
    "Distribution", "StochMap",
    "dirac", "bernoulli", "distribution",
    "compose_maps", "tensor_maps", "identity_map",
    "tv_distance", "hom_distance",
    "Series", "denote", "map_to_tsv", "bit_string", "WireLimitError",
    "HARD_WIRE_LIMIT", "SOFT_WIRE_LIMIT",
]

ONE = Fraction(1)

HARD_WIRE_LIMIT = 20
SOFT_WIRE_LIMIT = 14

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep

# Distribution: dict[int, Fraction] with positive entries summing to one.
Distribution = dict


def _wire_limit() -> int:
    raw = os.environ.get("PBC_MAX_WIRES")
    if raw is None:
        return HARD_WIRE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise PBCError(f"PBC_MAX_WIRES must be an integer, got {raw!r}")
    if limit < 0:
        raise PBCError(f"PBC_MAX_WIRES must not be negative, got {raw!r}")
    return limit


def _check_width(n: int, what: str) -> None:
    """Enforce the wire limit on an n-wire map."""
    limit = _wire_limit()
    if n > limit:
        raise WireLimitError(
            f"{what} needs {n} wires, above the limit of {limit} "
            "(set PBC_MAX_WIRES to raise it)")


def _warn_width(n: int, what: str) -> bool:
    """Warn that an n-wire map is read if n reaches the soft limit;
    whether it did."""
    if n < SOFT_WIRE_LIMIT:
        return False
    # Name the first caller outside this package, which is what warn's
    # skip_file_prefixes does from Python 3.12 on.
    level, frame = 1, sys._getframe()
    while frame and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level, frame = level + 1, frame.f_back
    warnings.warn(f"{what} uses {n} wires; expect slow exact arithmetic",
                  stacklevel=level)
    return True


def distribution(items) -> Distribution:
    """Build a validated distribution from (value, weight) pairs."""
    out: Distribution = {}
    for value, p in items:
        p = exact_rational(p)
        if p < 0:
            raise ValueError(f"negative weight {p} at {value}")
        if p:
            out[value] = out.get(value, ZERO) + p
    if sum(out.values(), ZERO) != ONE:
        raise ValueError("distribution weights do not sum to 1")
    return out


def dirac(value: int) -> Distribution:
    return {value: ONE}


def bernoulli(p) -> Distribution:
    """Distribution on one wire that is 1 with probability p."""
    p = exact_rational(p)
    if not 0 <= p <= 1:
        raise ValueError(f"bias {p} outside [0, 1]")
    out: Distribution = {}
    if p:
        out[1] = p
    if p != 1:
        out[0] = ONE - p
    return out


@dataclass(frozen=True, slots=True)
class StochMap:
    """A stochastic map on packed bitstrings.

    ``rows`` has one distribution per input, indexed densely by the input
    int; each row is a sparse dict over output ints.
    """

    in_arity: int
    out_arity: int
    rows: tuple

    def __post_init__(self):
        if len(self.rows) != 1 << self.in_arity:
            raise ValueError(
                f"expected {1 << self.in_arity} rows, got {len(self.rows)}")

    def __str__(self):
        return map_to_tsv(self)


def identity_map(n: int) -> StochMap:
    return StochMap(n, n, tuple(dirac(i) for i in range(1 << n)))


def compose_maps(f: StochMap, g: StochMap) -> StochMap:
    """Sequential composition: run f, feed its sample to g."""
    if f.out_arity != g.in_arity:
        raise ValueError(
            f"cannot compose {f.in_arity}->{f.out_arity} "
            f"with {g.in_arity}->{g.out_arity}")
    rows = []
    for row in f.rows:
        out: Distribution = {}
        for mid, p in row.items():
            for result, q in g.rows[mid].items():
                out[result] = out.get(result, ZERO) + p * q
        rows.append(out)
    return StochMap(f.in_arity, g.out_arity, tuple(rows))


def tensor_maps(f: StochMap, g: StochMap) -> StochMap:
    """Parallel composition: independent product, f on the left wires."""
    n = f.in_arity + g.in_arity
    wide = max(n, f.out_arity + g.out_arity)
    _check_width(wide, "a tensor")
    _warn_width(wide, "a tensor")
    rows = []
    for i in range(1 << f.in_arity):
        frow = f.rows[i]
        for j in range(1 << g.in_arity):
            grow = g.rows[j]
            out: Distribution = {}
            for a, p in frow.items():
                base = a << g.out_arity
                for b, q in grow.items():
                    out[base | b] = p * q
            rows.append(out)
    return StochMap(n, f.out_arity + g.out_arity, tuple(rows))


def tv_distance(v: Distribution, w: Distribution) -> Fraction:
    """Total variation distance, as the mass one distribution puts above
    the other.  Each distribution's weights must sum to 1, as they do
    in every row of a map, or it raises ValueError."""
    scale = math.lcm(*{p.denominator for d in (v, w) for p in d.values()})
    a = {k: p.numerator * (scale // p.denominator) for k, p in v.items()}
    b = {k: p.numerator * (scale // p.denominator) for k, p in w.items()}
    if sum(a.values()) != scale or sum(b.values()) != scale:
        raise ValueError("distribution weights do not sum to 1")
    return _tv(scale, a, scale, b)


def hom_distance(f: StochMap, g: StochMap) -> Fraction:
    """Largest row-wise total variation distance over all inputs."""
    if (f.in_arity, f.out_arity) != (g.in_arity, g.out_arity):
        raise ValueError("hom_distance needs maps of equal type")
    best = ZERO
    for frow, grow in zip(f.rows, g.rows):
        d = tv_distance(frow, grow)
        if d > best:
            best = d
    return best


# ---------------------------------------------------------------------------
# Denotation: a forward evaluator, one input row at a time.
#
# A term is compiled into ``_Node``s, at one size at a time.  A node is
# deterministic (``det`` maps a packed input to its packed output) or
# stochastic: its ``memo`` holds its rows by input, each ``(den, {output:
# numerator})`` with int numerators summing to the int ``den``, and its
# ``kernel`` computes a missing row.  A kernel is a generator: it reads
# its children's rows from their memos and yields ``(child, input)`` for
# a row that is missing, which is sent back to it; a known row costs no
# round trip through the driver.  One loop, ``_row``, runs the pending
# kernels on an explicit stack, so no evaluation recurses, however deep
# the term nests.  A deterministic node calls its parts' functions
# instead, built when its first row is read; one nested more than
# ``_DET_DEPTH`` calls deep becomes a kernel.  Coin-free, if-free wiring
# also keeps its bit selection, so any Seq or Par of wiring fuses into
# one selection, applied as a few shift/mask groups; so does a loop over
# wiring, each level one selection.  A Seq whose first stage is
# deterministic keeps no rows: its memo reads and files rows in its
# rest's memo at that stage's output (``_Through``).  A tensor is one
# node, whatever its number of factors (``Series._par``): its wiring
# joins one selection whose holes are the other factors' outputs;
# deterministic factors fill their holes inside one function, and the
# rows of stochastic factors are placed beside the point it gives
# (``_place``).  Wiring beside one coin alone is a product node, the
# coin's row fixed when it is built, and a Seq multiplies a
# distribution of many outcomes by it in one pass.  A conditional
# ``(c x m x d) ; if`` is one node, a case split with m ``id<B>`` and a
# choice with m ``coin(p)``: it reads m and asks only for the arms m
# gives weight, so it never builds the product of both arms.  The rows,
# their format and the kernels that build and compare them, are
# ``_rows``'s.

# Far below the default recursion limit of 1000, whatever calls the
# evaluator.
_DET_DEPTH = 50


class _Node:
    """One compiled subterm of type ``n_in`` wires -> ``n_out`` wires.

    Stochastic when ``memo`` is set, else deterministic.  ``sel`` is set
    on pure wiring: output bit i, counted from the least significant, is
    input bit ``sel[i]``.  A deterministic node's ``det`` is built on
    first use (``function``), from its selection or else by ``make``,
    because most wiring only ever fuses into larger wiring and a question
    that reads no row needs no function.  ``injective`` says that ``det``
    never merges two inputs, and ``depth`` how deep its calls nest.  A
    coin's memo holds its one row, and it has no kernel.  A product node,
    a tensor of wiring and one coin, has a kernel, and ``fixed`` holds
    the wiring beside the coin, as a node, and the coin's row placed at
    the coin's bits, around which the wiring sets its bits; its
    ``injective`` is the wiring's.  A Seq whose first stage is
    deterministic keeps no rows of its own: its memo is a ``_Through``.
    """

    __slots__ = ("n_in", "n_out", "sel", "make", "det", "injective",
                 "depth", "memo", "kernel", "fixed")

    def __init__(self, n_in, n_out, *, sel=None, make=None, det=None,
                 injective=False, depth=1, kernel=None, memo=None,
                 fixed=None):
        self.n_in = n_in
        self.n_out = n_out
        self.sel = sel  # tuple of input bit positions, or None
        self.make = make  # () -> the function, or None
        self.det = det  # int -> int
        self.injective = injective
        self.depth = depth
        self.kernel = kernel  # int -> generator yielding (node, int)
        self.memo = {} if kernel is not None and memo is None else memo
        self.fixed = fixed  # a product node's (wiring, coin row), or None

    def function(self):
        """The function of a deterministic node, built on first use."""
        if self.det is None:
            self.det = (_select(self.sel, self.n_in) if self.make is None
                        else self.make())
        return self.det


class _Through:
    """The memo of a node whose row at x is node ``rest``'s row at f(x),
    f the function of a deterministic node ``pre``: it reads and files
    rows at f(x) in rest's memo, ``rows``, and keeps none of its own.
    So a ``;`` that opens with a deterministic stage keeps no rows.  f is
    built on first use and kept in ``f``."""

    __slots__ = ("pre", "rows", "f")

    def __init__(self, pre: _Node, rows):
        self.pre = pre
        self.rows = rows
        self.f = None

    def at(self, x):
        """f(x), f built and kept on first use."""
        f = self.f
        if f is None:
            f = self.f = self.pre.function()
        return f(x)

    def get(self, x):
        return self.rows.get((self.f or self.at)(x))

    def __setitem__(self, x, row):
        self.rows[(self.f or self.at)(x)] = row


def _row(node: _Node, x: int) -> tuple:
    """The row of a node at input x, as ``(den, {output: numerator})``.

    The one evaluation loop: it runs each missing row's kernel on an
    explicit stack, sends the rows a kernel asks for back to it, and
    files every finished row in its node's memo.
    """
    if node.memo is None:
        return 1, {node.function()(x): 1}
    row = node.memo.get(x)
    if row is not None:
        return row
    stack = []
    run = node.kernel(x)
    while True:
        try:
            child, y = run.send(row)
        except StopIteration as done:
            node.memo[x] = row = done.value
            if not stack:
                return row
            node, x, run = stack.pop()
        else:
            stack.append((node, x, run))
            node, x, run, row = child, y, child.kernel(y), None


def _as_kernel(node: _Node) -> _Node:
    """A deterministic node as a stochastic one, of support one; the
    function is kept from the first run."""
    det = None

    def kernel(x):
        nonlocal det
        if det is None:
            det = node.function()
        return 1, {det(x): 1}
        yield  # a generator, as every kernel is

    return _Node(node.n_in, node.n_out, kernel=kernel)


def _shallow(node: _Node) -> _Node:
    """The node, or its kernel when its calls nest too deep."""
    return _as_kernel(node) if node.depth > _DET_DEPTH else node


def _select(sel: tuple, n_in: int):
    """The int function of a bit selection: one mask per shift amount;
    a hole in it, None, is an output bit left 0."""
    by_shift: dict = {}
    for out_bit, in_bit in enumerate(sel):
        if in_bit is None:  # a hole: the bit stays 0
            continue
        shift = out_bit - in_bit
        by_shift[shift] = by_shift.get(shift, 0) | (1 << in_bit)
    if not by_shift:
        return lambda x: 0
    if len(by_shift) == 1:
        ((shift, mask),) = by_shift.items()
        if shift >= 0:
            if shift == 0 and mask == (1 << n_in) - 1:
                return lambda x: x
            return lambda x: (x & mask) << shift
        shift = -shift
        return lambda x: (x & mask) >> shift
    up = tuple((m, s) for s, m in by_shift.items() if s >= 0)
    down = tuple((m, -s) for s, m in by_shift.items() if s < 0)

    def select(x):
        y = 0
        for mask, shift in up:
            y |= (x & mask) << shift
        for mask, shift in down:
            y |= (x & mask) >> shift
        return y
    return select


def _wiring(n_in: int, sel: tuple) -> _Node:
    return _Node(n_in, len(sel), sel=sel, injective=len(set(sel)) == n_in)


def _fixed(node: _Node):
    """A coin's row, the one its memo holds and no kernel adds to; else
    None."""
    return node.memo[0] if node.kernel is None and node.memo else None


def _fill(sel: tuple, n_in: int, dets: tuple):
    """The function of a bit selection whose holes deterministic nodes
    fill: each ``(node, at, mask, to)`` reads its input at bit ``at``
    under ``mask`` and writes the node's output at bit ``to``."""
    pick = _select(sel, n_in)
    if not dets:
        return pick
    dets = [(node.function(), *place) for node, *place in dets]

    def fill(x):
        y = pick(x)
        for fn, at, mask, to in dets:
            y |= fn(x >> at & mask) << to
        return y
    return fill


def _phi(w: int):
    mask = (1 << w) - 1
    return lambda x: x >> (w + 1) if (x >> w) & 1 else x & mask


def _compose(nodes: list) -> _Node:
    """One deterministic node for a run of them, applied in order;
    neighbouring wiring fuses into one selection."""
    fused = [nodes[0]]
    for g in nodes[1:]:
        f = fused[-1]
        if f.sel is not None and g.sel is not None:
            fused[-1] = _wiring(f.n_in, tuple(f.sel[i] for i in g.sel))
        else:
            fused.append(g)
    if len(fused) == 1:
        return fused[0]

    def make():
        fns = tuple(n.function() for n in fused)

        def det(x):
            for fn in fns:
                x = fn(x)
            return x
        return det
    return _shallow(_Node(fused[0].n_in, fused[-1].n_out, make=make,
                          injective=all(n.injective for n in fused),
                          depth=1 + max(n.depth for n in fused)))


def _through(pre: _Node, rest: _Node) -> _Node:
    """A deterministic node, then a stochastic one, as one node that
    keeps no rows: its row at x is rest's row at pre's output at x, and
    its kernel is rest's kernel there, whose row its memo files in
    rest's."""
    memo = _Through(pre, rest.memo)
    return _Node(pre.n_in, rest.n_out,
                 kernel=lambda x: rest.kernel(memo.at(x)), memo=memo)


class _Loop:
    """The levels of one loop, read off the unrolling equation
    tau^(n+1) = pop ; (body x id) ; (id x tau^n) ; push with tau^0 the
    identity on the state.

    Level n is a stochastic node for tau^n.  Its kernel pops the front
    elements, runs the body on them, asks level n - 1 for each
    continuation and pushes the outputs; pop and push are selections,
    left out when the identity.  A loop over wiring is wiring: deterministic
    maps compose and tensor to deterministic maps, so each of its levels
    is one selection, the four stages of the equation fused, with no
    kernel, memo or recipe table.  No level depends on the size the loop
    runs at, so a loop kept from one size to the next only adds the
    levels it lacks.

    So a loop is a function of its signature ``sig``, the widths of its
    state and of its input and output streams, and of its body's map
    alone.  Two loops of one signature whose bodies denote one map are
    equal at every size: tau^0 is the identity on both; pop and push at
    level n are fixed by the signature and n, so if the two levels n are
    one map, so are the two levels n + 1, each built from the same
    parts.  ``Series`` uses this to build such loops once (``_alike``).

    A level row is fully determined by its recipe: the level n, which
    fixes the push, the body row at the popped element and the
    continuation rows it mixes.  ``rows`` maps each recipe to its
    finished row, and a kernel looks its recipe up before it mixes, so
    the inputs of one loop build each row once.  A recipe names each
    continuation row by ``id``, so every such row must stay alive while
    its key does, and it does, within the loop: level rows are the
    table's own values, and level 0 keeps its rows in its memo.  A
    row whose parts cannot collide is concatenated (``_concat``), not
    mixed, and, from ``_rows._CAT_FLOOR`` entries on, kept as its parts: the
    continuation rows, no entry copied, split at the width of the
    continuation outputs.  So the key-guess loop's row for a guess
    string holds the one row of every input whose flag has cleared, and
    each level adds a part, not a copy, to each row.
    """

    __slots__ = ("step", "sw", "a", "outs", "in_words", "out_words", "cap",
                 "rows", "levels")

    def __init__(self, body: _Node, sig: tuple, cap: int):
        sw, ins, outs = sig
        # ``step`` is wiring or memoizes the body's rows.
        self.step = (body if body.memo is not None or body.sel is not None
                     else _as_kernel(body))
        self.sw, self.a, self.outs = sw, sum(ins), outs
        # Pop and push are the wiring tau_k_expand uses, over Boolean
        # words; with at most one nonempty stream they are the identity.
        self.in_words = (tuple(bools(w) for w in ins)
                         if sum(1 for w in ins if w) > 1 else None)
        self.out_words = (tuple(bools(w) for w in outs)
                          if sum(1 for w in outs if w) > 1 else None)
        self.cap = cap
        self.rows = {}  # recipe -> row
        level = _wiring(sw, tuple(range(sw)))
        self.levels = [level if body.sel is not None else _as_kernel(level)]

    def level(self, k: int) -> _Node:
        """The node of tau^k."""
        while len(self.levels) <= k:
            self._add_level()
        return self.levels[k]

    def _add_level(self) -> None:
        n, sw, a, b, cap = (len(self.levels), self.sw, self.a,
                            sum(self.outs), self.cap)
        # Both are star-free wiring, so they compile to one selection.
        pop = push = None
        if self.in_words:
            pop = Series().node(par(Id(bools(sw)),
                                    pop_term(self.in_words, n - 1)))
        if self.out_words:
            push = Series().node(par(push_term(self.out_words, n - 1),
                                     Id(bools(sw))))
        body, below = self.step, self.levels[-1]
        r_bits = (n - 1) * a
        if body.sel is not None:
            # pop ; (body x id) ; (id x tau^(n-1)) ; push, each a
            # selection, the left factor of a tensor on the high bits.
            stages = (pop, _wiring(sw + n * a, (*range(r_bits), *(
                          s + r_bits for s in body.sel))),
                      _wiring(below.n_in + b, (*below.sel, *range(
                          below.n_in, below.n_in + b))),
                      push)
            self.levels.append(_compose([s for s in stages if s is not None]))
            return
        pop, push = pop and pop.function(), push and push.function()
        body_rows, below_rows, rows = body.memo, below.memo, self.rows
        r_mask = (1 << r_bits) - 1
        s_mask = (1 << sw) - 1
        c_bits = (n - 1) * b + sw

        def kernel(v):
            y = pop(v) if pop else v
            e = y >> r_bits
            row = body_rows.get(e)
            den, dist = row if row is not None else (yield body, e)
            r = y & r_mask
            parts, recipe = [], []
            for o, m in _plain(dist).items():
                c = ((o & s_mask) << r_bits) | r
                row = below_rows.get(c)
                if row is None:
                    row = yield below, c
                hi = (o >> sw) << c_bits
                parts.append((m, hi, row))
                recipe.append((hi, m, id(row)))
            # Sorted: one map's rows may list their outputs in any order.
            recipe.sort()
            key = (n, den, *recipe)
            row = rows.get(key)
            if row is None:
                # Continuation outputs lie below 2^c_bits, so parts of
                # distinct stream heads, as their hi tells, are disjoint.
                # A loop that emits nothing has one head.  A push moves
                # the heads, so its rows are mixed.
                rows[key] = row = (
                    _concat(den, parts, cap, c_bits)
                    if push is None and b
                    and len({h for _, h, _ in parts}) == len(parts)
                    else _mix(den, parts, cap, push))
            return row

        self.levels.append(_Node(sw + n * a, n * b + sw, kernel=kernel))


def _alike(loop: _Loop, body: _Node) -> bool:
    """Whether a loop's body and another body of its signature denote
    one map, so the two loops are one (see ``_Loop``).  The rows are
    compared input by input, up to the first that differs.  Every body
    input is an input of level 1, so this reads no more body rows than
    a scan of the two loops at size 1 would."""
    return not any(_tv(*_row(loop.step, x), *_row(body, x))
                   for x in range(1 << body.n_in))


def _stages(fs: list) -> tuple:
    """A Seq's factors, each conditional ``(c x m x d) ; if`` among them
    replaced by its arms and chooser c, m, d; and where each conditional
    starts, with its ``if``."""
    out, conds, end = [], [], 0  # out[end:] is not in a conditional
    for t in fs:
        if t.__class__ is Gen and t.kind == PHI and len(out) > end:
            match out[-1]:
                case Par(Par(c, m), d):
                    out[-1:] = c, m, d
                    end = len(out)
                    conds.append((end - 3, t))
                    continue
        out.append(t)
    return out, conds


def _leaf_shape(leaf: Term) -> tuple:
    """A leaf's shape, and whether it has one node at every size.

    The shape is a plain tuple headed by the leaf's kind, so leaves of
    two kinds never share one, and it holds only words and ints: a
    coin's bias is its numerator and denominator, so no Fraction is
    hashed.  A generator is size-free; wiring is over star-free words.
    """
    cls = leaf.__class__
    if cls is Gen:
        if leaf.kind == COIN:
            p = leaf.p
            return (COIN, p.numerator, p.denominator), True
        return (leaf.kind, leaf.at), True
    if cls is Id:
        return (Id, leaf.obj), is_star_free(leaf.obj)
    if cls is Swap:
        left, right = leaf.left, leaf.right
        return (Swap, left, right), is_star_free(left + right)
    raise PBCError(f"not a term: {leaf!r}")


class Series:
    """One question's compile cache: terms compiled bottom up with an
    explicit stack, at one size at a time, for a run of sizes.

    A question takes its type from the terms it is asked about, so one
    series may answer questions of many types.  A term is found by its
    shape at the size (``node``): every term that spells one shape, one
    object or many, shares its node, and so its memo, across every
    question, and two terms of one node are equal without a row read.  A
    node is size-free when its subterm has only star-free objects and no
    loop; a size-free node is the same at every size, so its shape is
    kept, memo and all, when the series moves to another size, and every
    other shape is dropped.  A loop is found by its signature and body
    node (``_tau``), where it is built, bare or inside a larger term,
    and a loop whose body is size-free keeps its ``_Loop`` from one size
    to the next.  A loop met for the first time is compared with the
    kept loops of its signature, body row by body row up to the first
    that differs (``_alike``); if one has a body of the same map, it is
    that loop.  So two loops of one map are one node at every size, and
    so are equal terms around them: a parametric file and its copy are
    one node, equal with no row read.  A loop over a body that loops too
    gets fresh levels at each size, even when its type is star-free,
    because the inner loop's value depends on the size.  Each loop
    builds its level rows through a table of its own, once per recipe
    (see ``_Loop``), dropped with the loop; a loop over wiring builds
    none, each level one selection.  A ``;`` whose first stage is
    deterministic keeps no rows of its own: it reads its rest's rows at
    that stage's output (``_through``), so the left side of key-guess
    reads the loop's level rows directly, and its right side one row
    for every input.  Over increasing sizes
    k = 0, 1, ..., K a series costs about as much as its largest size.
    Comparisons read the compiled roots one input row at a time as
    ``(den, {output: numerator})``; they build no map and no Fraction
    per entry.  Two rows kept as their parts are compared part against
    part, and a scan (``distance``, ``difference``) keeps the sum of
    every pair of parts it has compared, so a part that many rows share
    is summed once per place (``_rows._excess``); ``rows``, ``map`` and
    ``difference`` hand out plain dicts.

    The size k is None for terms of a fixed size, which parametric
    terms are not.  The wire limit (PBC_MAX_WIRES, default 20 wires)
    bounds a question's type at every size, and every distribution met
    on the way to at most 2^limit outcomes.  A type of 14 wires or more
    warns once per series, when the question's rows are first read.
    """

    def __init__(self):
        self.k = None  # the size starred objects are read at, or None
        self.nodes: dict = {}  # id(term) -> (term, node, size-free)
        self.shapes: dict = {}  # shape -> node, for size-free terms
        self.sized: dict = {}  # shape -> node at size k, for the others
        self.loops: dict = {}  # signature -> {body node: _Loop}, size-free
        self.cap = 1  # largest support a kernel may have; set per question
        self.width = 0  # the wires of the question's type; set per question
        self._warned = False

    def _read(self) -> None:
        """Before the question's rows are read: warn, once per series,
        that its type is at the soft wire limit or above."""
        if not self._warned:
            self._warned = _warn_width(self.width, "the map")

    def _at(self, judgement: TypeJudgement, k: int | None) -> int:
        """Move to size k, dropping the nodes that depend on the size;
        the input width of a question of this type there."""
        # No distribution held in memory reaches 2^64 outcomes; the clamp
        # keeps a huge PBC_MAX_WIRES from building a huge int.
        self.cap = 1 << min(_wire_limit(), 64)
        if k is None and judgement.parametric:
            raise PBCError(
                f"term of parametric type {judgement} has no "
                "fixed-size semantics; pass a size k to instantiate it at")
        if k is not None and k < 0:
            raise ValueError(f"negative size {k}")
        n_in = width(judgement.domain, k)
        self.width = max(n_in, width(judgement.codomain, k))
        _check_width(self.width, "the map")
        if k != self.k:
            self.k = k
            self.nodes = {key: e for key, e in self.nodes.items() if e[2]}
            self.sized = {}
        return n_in

    def node(self, root: Term) -> _Node:
        """The node of a term at the size, compiled bottom up and found by
        its shape.  A term object met before is found by its ``id``.  A
        leaf's shape is its kind and values (``_leaf_shape``); a Seq's or
        Par's is its former, its parts' nodes, held as objects, so no
        ``id`` can be reused, and where each conditional starts, with its
        word.  A loop is found by ``_tau``."""
        nodes, todo = self.nodes, [(root, None)]
        pop, push = todo.pop, todo.append
        while todo:
            term, parts = pop()
            if id(term) in nodes:
                continue
            cls = term.__class__
            if parts is None and (cls is Seq or cls is Par or cls is TauStar):
                parts = (_stages(factors(term)) if cls is Seq
                         else (factors(term), ()) if cls is Par
                         else ((term.body,), ()))
                push((term, parts))
                for t in parts[0]:
                    if id(t) not in nodes:
                        push((t, None))
                continue
            if cls is TauStar:
                node, free = self._tau(term), False
            else:
                if parts is None:
                    shape, free = _leaf_shape(term)
                else:
                    subterms, conds = parts
                    built, free = [], True
                    for t in subterms:
                        _, node, node_free = nodes[id(t)]
                        built.append(node)
                        if not node_free:
                            free = False
                    shape = (cls, *built)
                    for i, phi in conds:
                        shape += ((i, phi.at),)
                    parts = built, conds
                table = self.shapes if free else self.sized
                node = table.get(shape)
                if node is None:
                    node = table[shape] = self._build(term, parts)
            nodes[id(term)] = term, node, free
        return nodes[id(root)][1]

    def _build(self, term: Term, parts) -> _Node:
        """The node of a term other than a loop whose parts are built.  A
        Seq's or Par's parts are its subterms' nodes, a list this may
        change, and its conditionals.  A conditional whose arms are not
        of its width runs as written: its stage, then its if."""
        k = self.k
        if isinstance(term, Id):
            n = width(term.obj, k)
            return _wiring(n, tuple(range(n)))
        if isinstance(term, Swap):
            wl, wr = width(term.left, k), width(term.right, k)
            return _wiring(wl + wr,
                           tuple(range(wr, wr + wl)) + tuple(range(wr)))
        if isinstance(term, Gen):
            return self._gen(term)
        nodes, conds = parts
        for i, phi in reversed(conds):  # right to left: i stays put
            c, m, d = nodes[i:i + 3]
            cond = self._cond(c, m, d, width(phi.at))
            nodes[i:i + 3] = ([cond] if cond is not None
                              else [self._par([c, m, d]), self._gen(phi)])
        return (self._seq if isinstance(term, Seq) else self._par)(nodes)

    def _tau(self, term: TauStar) -> _Node:
        """A loop's level at the size.  A loop over a size-free body is
        found by its signature and body node.  A body node met for the
        first time is compared with the bodies of the kept loops of its
        signature, and is given the loop of the one of the same map, if
        any, else a new ``_Loop``."""
        k = self.k
        sw = width(term.state, k)
        if k == 0:  # the identity on the state, one node per width
            return self.sized.setdefault((TauStar, sw),
                                         _wiring(sw, tuple(range(sw))))
        sig = (sw, tuple(width(o, k) for o in term.inputs),
               tuple(width(o, k) for o in term.outputs))
        _, body, free = self.nodes[id(term.body)]
        if not free:
            return _Loop(body, sig, self.cap).level(k)
        loops = self.loops.setdefault(sig, {})
        loop = loops.get(body)
        if loop is None:
            loop = loops[body] = next(
                (old for old in dict.fromkeys(loops.values())
                 if _alike(old, body)), None) or _Loop(body, sig, self.cap)
        return loop.level(k)

    def _gen(self, term: Gen) -> _Node:
        if term.kind == COIN:
            p = term.p
            if p.denominator == 1:
                value = p.numerator
                return _Node(0, 1, det=lambda x: value, injective=True)
            row = (p.denominator,
                   {1: p.numerator, 0: p.denominator - p.numerator})
            return _Node(0, 1, memo={0: row})
        w = width(term.at)
        if term.kind == COPY:
            return _wiring(w, tuple(range(w)) * 2)
        if term.kind == DISCARD:
            return _wiring(w, ())
        if term.kind == PHI:
            return _Node(2 * w + 1, w, det=_phi(w))
        raise PBCError(f"unknown generator kind {term.kind!r}")

    def _seq(self, nodes: list) -> _Node:
        """A run of stages as one node.  Runs of deterministic stages
        compose into one stage each.  When the first stage is
        deterministic, the node keeps no rows (``_through``): its rest
        is the one stochastic stage, or the node of the remaining
        stages."""
        stages = []
        for det, run in groupby(nodes, key=lambda n: n.memo is None):
            if det:
                stages.append(_compose(list(run)))
            else:
                stages.extend(run)
        if len(stages) == 1:
            return stages[0]
        if stages[0].memo is None:
            rest = stages[1] if len(stages) == 2 else self._chain(stages[1:])
            return _through(stages[0], rest)
        return self._chain(stages)

    def _chain(self, stages: list) -> _Node:
        """Stages, the first stochastic, as one node with a kernel.  The
        deterministic stages' functions are bound on its first run."""
        cap, steps = self.cap, None

        def bind():
            # A product node whose selection is injective is placed.
            return tuple(
                (s, s.memo, s.function() if s.memo is None else None,
                 s.injective, (s.fixed[0].function(), *s.fixed[1:])
                 if s.fixed is not None and s.injective else None)
                for s in stages)

        def kernel(x):
            nonlocal steps
            if steps is None:
                steps = bind()
            den, dist = 1, {x: 1}
            for child, rows, det, injective, placed in steps:
                if len(dist) == 1:
                    (v,) = dist
                    if det is not None:
                        dist = {det(v): 1}
                    else:
                        row = rows.get(v)
                        den, dist = (row if row is not None
                                     else (yield child, v))
                    continue
                dist = _plain(dist)  # each stage below reads every entry
                if placed:  # a product stage, as _mix would mix it
                    fn, d, row = placed
                    r = len(row)
                    if len(dist) * r > cap:  # refused where _mix refuses
                        raise _support_error((cap // r + 1) * r, cap)
                    # The row is reduced, so the gcd of the numerators
                    # of the product is that of dist's.
                    g = math.gcd(den * d, *dist.values())
                    den, row = den * d // g, row.items()
                    dist = {u | y: n * m for u, n in
                            [(fn(v), n // g) for v, n in dist.items()]
                            for y, m in row}
                elif det is None:
                    parts = []
                    for v, n in dist.items():
                        row = rows.get(v)
                        if row is None:
                            row = yield child, v
                        parts.append((n, 0, row))
                    den, dist = _mix(den, parts, cap)
                elif injective:
                    dist = {det(v): n for v, n in dist.items()}
                else:
                    out: dict = {}
                    for v, n in dist.items():
                        y = det(v)
                        out[y] = out.get(y, 0) + n
                    if len(out) == 1:
                        den, out = 1, dict.fromkeys(out, 1)
                    dist = out
            return den, dist

        return _Node(stages[0].n_in, stages[-1].n_out, kernel=kernel)

    def _cond(self, c: _Node, m: _Node, d: _Node, w: int) -> _Node | None:
        """``(c x m x d) ; if<w>`` as one node, or None when the arms are
        not w wires wide.  It reads m's output bit and asks only for the
        arms it gives weight: c for 1, d for 0."""
        if not c.n_out == d.n_out == w or m.n_out != 1:
            return None
        d_in, m_mask, d_mask = d.n_in, (1 << m.n_in) - 1, (1 << d.n_in) - 1
        c_at = d_in + m.n_in
        if c.memo is None and m.memo is None and d.memo is None:
            def make():
                cf, mf, df = c.function(), m.function(), d.function()
                return lambda x: (cf(x >> c_at) if mf(x >> d_in & m_mask)
                                  else df(x & d_mask))
            return _shallow(_Node(c_at + c.n_in, w, make=make,
                                  depth=1 + max(c.depth, m.depth, d.depth)))
        m_rows, cap, bound = m.memo, self.cap, None

        def bind():
            # The functions of the chooser and arms that are deterministic.
            mf, cf, df = (n.function() if n.memo is None else None
                          for n in (m, c, d))
            return mf, ((1, c, cf, c_at, -1), (0, d, df, 0, d_mask))

        def kernel(x):
            nonlocal bound
            if bound is None:
                bound = bind()
            mf, arms = bound
            u = x >> d_in & m_mask
            row = (1, {mf(u): 1}) if mf else m_rows.get(u)
            den, bits = row if row is not None else (yield m, u)
            bits, parts = _plain(bits), []
            for bit, arm, fn, at, mask in arms:
                if bit in bits:
                    u = x >> at & mask
                    row = (1, {fn(u): 1}) if fn else arm.memo.get(u)
                    parts.append((bits[bit], 0, row if row is not None
                                  else (yield arm, u)))
            return _mix(den, parts, cap)

        return _Node(c_at + c.n_in, w, kernel=kernel)

    def _par(self, nodes: list) -> _Node:
        """A tensor of nodes, the first on the left, as one node, built in
        one pass from the right.  The wiring joins one bit selection, and
        every other node's outputs are holes in it.  With no other node
        it is wiring; with deterministic nodes alone, one function that
        fills their holes (``_fill``), built on first use.  Else its
        kernel reads the point that function gives and the rows of the
        stochastic nodes, and places them (``_place``); beside one coin
        alone it is a product node, the coin's row fixed."""
        sel, dets, steps, n_in = [], [], [], 0
        for node in reversed(nodes):
            if node.sel is not None:
                sel += [s + n_in for s in node.sel]
            else:
                place = n_in, (1 << node.n_in) - 1, len(sel)
                if node.memo is None:
                    dets.append((node, *place))
                else:
                    steps.append((node, node.memo, *place))
                sel += [None] * node.n_out
            n_in += node.n_in
        sel, n_out = tuple(sel), len(sel)
        if not dets and not steps:
            return _wiring(n_in, sel)
        injective = all(n.injective for n in nodes if n.memo is None)
        dets = tuple(dets)
        point = _Node(n_in, n_out, make=lambda: _fill(sel, n_in, dets),
                      injective=injective,
                      depth=1 + max(n.depth for n in nodes))
        if not steps:
            return _shallow(point)
        fixed = None
        if not dets and len(steps) == 1 and (coin := _fixed(steps[0][0])):
            den, row = coin
            to = steps[0][-1]
            fixed = point, den, {y << to: m for y, m in row.items()}
        steps.reverse()  # left to right, as _place takes them
        cap, fill = self.cap, None

        def kernel(x):
            nonlocal fill
            if fill is None:
                fill = point.function()
            hi, wide = fill(x), []
            for child, rows, at, mask, to in steps:
                u = x >> at & mask
                row = rows.get(u)
                den, out = row if row is not None else (yield child, u)
                if len(out) == 1:
                    (y,) = out
                    hi |= y << to
                else:
                    wide.append((to, den, out))
            return _place(hi, wide, cap)

        return _Node(n_in, n_out, kernel=kernel, fixed=fixed,
                     injective=injective)

    def rows(self, term: Term, k: int | None = None) -> tuple:
        """A term at size k as its output width and its rows, one per
        input in input order, each ``(den, {output: numerator})``."""
        n_in = self._at(typecheck(term), k)
        node = self.node(term)
        self._read()
        rows = [_row(node, x) for x in range(1 << n_in)]
        return node.n_out, [(den, _plain(row)) for den, row in rows]

    def map(self, term: Term, k: int | None = None) -> StochMap:
        """The stochastic map of a term at size k."""
        n_out, rows = self.rows(term, k)
        weights = {}
        return StochMap(len(rows).bit_length() - 1, n_out, tuple(
            _fractions(den, row, weights) for den, row in rows))

    def _scan(self, f: Term, g: Term, k: int | None):
        """The rows of two terms of one type at size k, input by input,
        as ``(input, input width, row of f, row of g)``; none when the
        two are one node, whose rows are one and need no reading."""
        n_in = self._at(same_type(f, g), k)
        fn, gn = self.node(f), self.node(g)
        if fn is not gn:
            self._read()
            for x in range(1 << n_in):
                yield x, n_in, _row(fn, x), _row(gn, x)

    def distance(self, f: Term, g: Term, k: int | None = None) -> Fraction:
        """The hom distance of two terms of one type at size k: the
        largest total variation distance over the input rows; the scan
        stops at a row of distance 1, the largest there is."""
        best, memo = ZERO, {}
        for _, _, a, b in self._scan(f, g, k):
            d = _tv(*a, *b, memo)
            if d > best:
                best = d
                if d == ONE:
                    break
        return best

    def difference(self, f: Term, g: Term, k: int | None = None):
        """The first input where two terms of one type part ways at size
        k, as ``(input, input width, row of f, row of g)`` with Fraction
        weights; None when they denote the same map."""
        memo = {}
        for x, n_in, (da, a), (db, b) in self._scan(f, g, k):
            if _tv(da, a, db, b, memo):
                return x, n_in, _fractions(da, a, {}), _fractions(db, b, {})
        return None


def denote(term: Term, k: int | None = None) -> StochMap:
    """Denote a term as a stochastic map, at size k if one is given.

    At size k every starred object is read as its k-fold power and every
    iteration as its k-fold unrolling, so ``denote(t, k)`` equals
    ``denote(instantiate(k, t))``; the unrolling equation is evaluated,
    not built as syntax.  This is the one-size case of ``Series``, whose
    limits it keeps: without a size, parametric terms raise.
    """
    return Series().map(term, k)


# ---------------------------------------------------------------------------
# Serialization.

def bit_string(value: int, n: int) -> str:
    """Fixed-width bitstring; the empty word prints as a dash."""
    return format(value, f"0{n}b") if n else "-"


def map_to_tsv(f: StochMap) -> str:
    """Tab-separated rendering: header then one line per (input, output)
    pair with an exact num/den probability, sorted by input then output."""
    lines = ["in\tout\tprob"]
    for i, row in enumerate(f.rows):
        for o in sorted(row):
            p = row[o]
            lines.append(
                f"{bit_string(i, f.in_arity)}\t"
                f"{bit_string(o, f.out_arity)}\t"
                f"{p.numerator}/{p.denominator}")
    return "\n".join(lines) + "\n"
