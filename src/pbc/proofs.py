"""Quantitative equality proofs with checkable distance bounds.

A ``Derivation`` is an explicit proof tree for a judgement ``f =[d] g``:
the two endpoint terms denote maps at total-variation distance at most
``d``.  ``check_derivation`` validates every node against its rule
schema and returns the root bound, so accepted derivations are sound by
construction.  ``synthesize_tight_derivation`` goes the other way and
produces, for any two star-free terms of one type, a derivation whose
root bound equals the exact hom distance.

The rules:

* ``Refl``: semantically equal terms, bound 0
* ``Top``: any two terms of one type, bound 1
* ``Sym``, ``Triangle``, ``Weaken``: symmetry, additivity, relaxation
* ``SeqLeft``/``SeqRight``/``ParLeft``/``ParRight``: congruence in one
  factor of a composition or tensor, the other factor shared
* ``PhiCase``: replace both branches of a conditional
  ``(c x id<B> x d) ; if`` under a shared bound
* ``PhiMix(p)``: replace both arms of a choice ``(c x coin(p) x d) ; if``,
  the bounds mixing as ``p*delta + (1-p)*gamma``

The checker does not take a ``PhiCase`` or ``PhiMix`` conclusion apart:
it rebuilds both endpoints from the premises' endpoints with the
builders the synthesizer uses (``terms.phi_case`` and
``terms.phi_mix``), at the word of the left endpoint's codomain, and
compares.  Endpoints that loop or have starred wires are refused, as
``typecheck`` reports them.

The synthesizer runs over the two terms' exact rows, split the way
their normal forms are, and its endpoints are the normal-form terms.
Each pair of rows is brought to one common denominator, so the shared
mass and the remainders are ints, and a Fraction is built only for a
choice weight and for spine weights.  Equal maps close with ``Refl``.
Otherwise it derives each pair of rows on its own and joins them with
the normal form's case fold, bottom up.
Two ``Refl`` halves join into one ``Refl``; any other two are levelled
with ``Weaken`` and joined by ``PhiCase``, which matches the exact
distance (the distance of a case split is the maximum over the
branches); each case term is built once, around its premises'
endpoints.  A pair of unequal rows is aligned along its shared mass:
with overlap ``m`` both sides rewrite as a ``phi_(1-m)`` mixture of a
common part against the disjoint remainders, and one ``PhiMix`` step
yields ``1 - m``, which is exactly the total-variation distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .objects import bools
from .terms import (
    Par, PBCError, PBCTypeError, Seq, Term, TypeJudgement, exact_rational,
    phi_case, phi_mix, same_type, typecheck,
)
from .semantics import Series
from .normalform import _build_spine, _fold_cases, _tree_term, case_term

__all__ = [
    "Derivation", "PBCProofError",
    "REFL", "TOP", "SYM", "TRIANGLE", "WEAKEN",
    "SEQ_LEFT", "SEQ_RIGHT", "PAR_LEFT", "PAR_RIGHT",
    "PHI_CASE", "PHI_MIX",
    "check_derivation", "synthesize_tight_derivation",
    "serialize_derivation",
]

REFL = "Refl"
TOP = "Top"
SYM = "Sym"
TRIANGLE = "Triangle"
WEAKEN = "Weaken"
SEQ_LEFT = "SeqLeft"
SEQ_RIGHT = "SeqRight"
PAR_LEFT = "ParLeft"
PAR_RIGHT = "ParRight"
PHI_CASE = "PhiCase"
PHI_MIX = "PhiMix"

_RULES = (REFL, TOP, SYM, TRIANGLE, WEAKEN, SEQ_LEFT, SEQ_RIGHT,
          PAR_LEFT, PAR_RIGHT, PHI_CASE, PHI_MIX)

# Congruence rules: the former of both endpoints, its plural noun, the
# factor the premise relates and the factor both endpoints share.
_CONGRUENCE = {
    SEQ_LEFT: (Seq, "compositions", "first", "second"),
    SEQ_RIGHT: (Seq, "compositions", "second", "first"),
    PAR_LEFT: (Par, "tensors", "left", "right"),
    PAR_RIGHT: (Par, "tensors", "right", "left"),
}


class PBCProofError(PBCError):
    """A derivation node does not match its rule schema."""


@dataclass(frozen=True, slots=True)
class Derivation:
    """One proof node: ``endpoints[0] =[bound] endpoints[1]``.

    ``param`` carries the choice weight of a ``PhiMix`` node and is
    None everywhere else.
    """

    rule: str
    endpoints: tuple  # tuple[Term, Term]
    bound: Fraction
    premises: tuple = ()  # tuple[Derivation, ...]
    param: Fraction | None = None

    def __post_init__(self):
        if self.rule not in _RULES:
            raise ValueError(f"unknown rule: {self.rule!r}")
        object.__setattr__(self, "endpoints", tuple(self.endpoints))
        if len(self.endpoints) != 2:
            raise ValueError(f"{len(self.endpoints)} endpoints, not 2")
        object.__setattr__(self, "bound", exact_rational(self.bound))
        object.__setattr__(self, "premises", tuple(self.premises))
        if self.param is not None:
            object.__setattr__(self, "param", exact_rational(self.param))

    @property
    def lhs(self) -> Term:
        return self.endpoints[0]

    @property
    def rhs(self) -> Term:
        return self.endpoints[1]


def _check_node(node: Derivation) -> TypeJudgement:
    """The checks a node passes before its premises are checked; the
    judgement of its endpoints."""
    if not isinstance(node, Derivation):
        raise PBCProofError(f"not a derivation: {node!r}")
    lhs, rhs = node.endpoints
    jl = typecheck(lhs)
    jr = typecheck(rhs)
    if jl != jr:
        raise PBCProofError(
            f"endpoint types differ: {jl} versus {jr}")
    if jl.parametric or jr.iterates:
        raise PBCProofError(
            "derivations cover star-free terms without loops; bounds at "
            "the star level live in the asymptotics module")
    if node.bound < 0:
        raise PBCProofError(f"negative bound {node.bound}")
    if node.rule != PHI_MIX and node.param is not None:
        raise PBCProofError(f"{node.rule} carries no parameter")
    return jl


def _check_rule(node: Derivation, jl: TypeJudgement, sub: list,
                series: Series) -> Fraction:
    """The node's rule schema, given its premises' checked bounds; Refl
    compares its endpoints through ``series``."""
    lhs, rhs = node.endpoints

    def arity(n: int) -> None:
        if len(node.premises) != n:
            raise PBCProofError(
                f"{node.rule} takes {n} premises, got {len(node.premises)}")

    if node.rule == REFL:
        arity(0)
        if node.bound != 0:
            raise PBCProofError(f"Refl has bound 0, got {node.bound}")
        if series.difference(lhs, rhs) is not None:
            raise PBCProofError(
                "Refl endpoints are not semantically equal")
        return node.bound

    if node.rule == TOP:
        arity(0)
        if node.bound != 1:
            raise PBCProofError(f"Top has bound 1, got {node.bound}")
        return node.bound

    if node.rule == SYM:
        arity(1)
        (p,) = node.premises
        if p.endpoints != (rhs, lhs):
            raise PBCProofError("Sym premise must flip the endpoints")
        if node.bound != sub[0]:
            raise PBCProofError("Sym keeps the premise bound")
        return node.bound

    if node.rule == TRIANGLE:
        arity(2)
        a, b = node.premises
        if a.lhs != lhs or a.rhs != b.lhs or b.rhs != rhs:
            raise PBCProofError(
                "Triangle premises must chain lhs -> middle -> rhs")
        if node.bound != sub[0] + sub[1]:
            raise PBCProofError(
                f"Triangle bound must be {sub[0] + sub[1]}, "
                f"got {node.bound}")
        return node.bound

    if node.rule == WEAKEN:
        arity(1)
        (p,) = node.premises
        if p.endpoints != node.endpoints:
            raise PBCProofError("Weaken keeps the endpoints")
        if node.bound < sub[0]:
            raise PBCProofError(
                f"Weaken cannot tighten: premise {sub[0]}, "
                f"bound {node.bound}")
        return node.bound

    if node.rule in _CONGRUENCE:
        former, noun, varies, stays = _CONGRUENCE[node.rule]
        arity(1)
        (p,) = node.premises
        if not (isinstance(lhs, former) and isinstance(rhs, former)):
            raise PBCProofError(f"{node.rule} endpoints must be {noun}")
        if getattr(lhs, stays) != getattr(rhs, stays):
            raise PBCProofError(f"{node.rule} must share the other factor")
        if p.endpoints != (getattr(lhs, varies), getattr(rhs, varies)):
            raise PBCProofError(
                f"{node.rule} premise must relate the varying factor")
        if node.bound != sub[0]:
            raise PBCProofError(f"{node.rule} keeps the premise bound")
        return node.bound

    if node.rule == PHI_CASE:
        arity(2)
        c, d = node.premises
        at = jl.codomain  # the conditional's word
        if node.endpoints != (phi_case(c.lhs, d.lhs, at),
                              phi_case(c.rhs, d.rhs, at)):
            raise PBCProofError(
                "PhiCase endpoints must be (c x id<B> x d) ; if over the "
                "premises' endpoints")
        if not (sub[0] == sub[1] == node.bound):
            raise PBCProofError(
                "PhiCase shares one bound between both premises")
        return node.bound

    if node.rule == PHI_MIX:
        arity(2)
        p = node.param
        if p is None:
            raise PBCProofError("PhiMix needs its choice weight as param")
        c, d = node.premises
        at = jl.codomain  # the choice's word
        if node.endpoints != (phi_mix(c.lhs, d.lhs, at, p),
                              phi_mix(c.rhs, d.rhs, at, p)):
            raise PBCProofError(
                "PhiMix endpoints must be (c x coin(p) x d) ; if over the "
                "premises' endpoints, with p the parameter")
        want = p * sub[0] + (1 - p) * sub[1]
        if node.bound != want:
            raise PBCProofError(
                f"PhiMix bound must be {want}, got {node.bound}")
        return node.bound

    raise PBCProofError(f"unknown rule: {node.rule!r}")


_DONE = object()  # stack marker: the node below it has checked premises


def check_derivation(d: Derivation) -> Fraction:
    """Validate every node of a derivation and return the root bound.

    Raises PBCProofError on any malformed rule application, bound
    mismatch, or endpoint type mismatch.  An accepted derivation
    guarantees that the endpoint denotations are within the root bound
    in hom distance.
    """
    series = Series()  # shared by every Refl node
    bounds: list = []  # the checked bounds, in post-order
    todo: list = [d]
    while todo:
        node = todo.pop()
        if node is _DONE:
            node, jl = todo.pop()
            n = len(bounds) - len(node.premises)
            bound = _check_rule(node, jl, bounds[n:], series)
            bounds[n:] = [bound]
        else:
            jl = _check_node(node)
            todo += ((node, jl), _DONE, *reversed(node.premises))
    return bounds[0]


# ---------------------------------------------------------------------------
# The tight synthesizer.

def _refl(a: Term, b: Term) -> Derivation:
    return Derivation(REFL, (a, b), Fraction(0))


def _bridge(f: Term, core: Derivation, g: Term) -> Derivation:
    """``f = core.lhs``, then ``core``, then ``core.rhs = g``: the core
    glued to the endpoints f and g by zero-cost Refl steps."""
    inner = Derivation(TRIANGLE, (core.lhs, g), core.bound,
                       (core, _refl(core.rhs, g)))
    return Derivation(TRIANGLE, (f, g), inner.bound,
                      (_refl(f, core.lhs), inner))


def _dist_term(dist: dict, out_arity: int, words: dict) -> Term:
    """The spine term of a row, built once per ``words`` table for rows
    of equal content; its key, a tuple of pairs, is never an output
    word's ``(value, n)``."""
    key = tuple(sorted(dist.items()))
    term = words.get(key)
    if term is None:
        term = words[key] = _tree_term(_build_spine(dist), out_arity, words)
    return term


def _common(a: tuple, b: tuple) -> tuple:
    """Two integer rows ``(den, {output: numerator})`` over their least
    common denominator s, as ``(s, numerators of a, numerators of b)``."""
    (da, v), (db, w) = a, b
    if da == db:
        return da, v, w
    s = math.lcm(da, db)
    ma, mb = s // da, s // db
    return (s, {x: n * ma for x, n in v.items()} if ma != 1 else v,
            {x: n * mb for x, n in w.items()} if mb != 1 else w)


def _synth_rows(s: int, v: dict, w: dict, out_arity: int,
                words: dict) -> Derivation:
    """The derivation of two rows of numerators over one denominator s."""
    tf = _dist_term(v, out_arity, words)
    if v == w:
        return _refl(tf, tf)
    tg = _dist_term(w, out_arity, words)
    shared = {x: min(q, w[x]) for x, q in v.items() if x in w}
    m = sum(shared.values())
    if m == 0:
        return Derivation(TOP, (tf, tg), Fraction(1))
    # 0 < m < s: align the common mass m / s and mix it against the
    # disjoint remainders; the choice weight 1 - m / s is the exact
    # distance.  A spine keeps only ratios of masses, so no part is
    # rescaled.
    tc = _dist_term(shared, out_arity, words)
    tvr, twr = (_dist_term({x: q - shared.get(x, 0) for x, q in r.items()
                            if q > shared.get(x, 0)}, out_arity, words)
                for r in (v, w))
    p = Fraction(s - m, s)
    mix_f = phi_mix(tvr, tc, bools(out_arity), p)
    mix_g = phi_mix(twr, tc, bools(out_arity), p)
    mix = Derivation(
        PHI_MIX, (mix_f, mix_g), p,
        (Derivation(TOP, (tvr, twr), Fraction(1)), _refl(tc, tc)),
        param=p)
    return _bridge(tf, mix, tg)


def _synth_maps(n: int, pairs: list) -> Derivation:
    """One derivation per row pair ``(s, v, w)`` of ``_common``, joined
    by the case fold; equal words are one term object."""
    words: dict = {}

    def case(d1: Derivation, d0: Derivation, arity: int) -> Derivation:
        tf = case_term(arity, n, d1.lhs, d0.lhs)
        if d1.rule == d0.rule == REFL:
            return _refl(tf, tf)
        delta = max(d1.bound, d0.bound)
        d1, d0 = (d if d.bound == delta else
                  Derivation(WEAKEN, d.endpoints, delta, (d,))
                  for d in (d1, d0))
        tg = case_term(arity, n, d1.rhs, d0.rhs)
        phi = Derivation(PHI_CASE, (tf.second, tg.second), delta, (d1, d0))
        return Derivation(SEQ_RIGHT, (tf, tg), delta, (phi,))

    return _fold_cases([_synth_rows(s, v, w, n, words)
                        for s, v, w in pairs], case)


def synthesize_tight_derivation(f: Term, g: Term) -> Derivation:
    """A checkable derivation whose bound is the exact hom distance.

    Both terms must be star-free and of one type.  The construction
    runs over the two terms' integer rows and glues back to the given
    terms with zero-cost Refl bridges, so the root endpoints are ``f``
    and ``g`` themselves.
    """
    jf = same_type(f, g)
    if jf.parametric:
        raise PBCTypeError(
            "tight derivations cover star-free terms without loops, got "
            f"a parametric pair of type {jf}")
    series = Series()
    n, rf = series.rows(f)
    _, rg = series.rows(g)
    pairs = [_common(a, b) for a, b in zip(rf, rg)]
    if all(v == w for _, v, w in pairs):
        return _refl(f, g)
    return _bridge(f, _synth_maps(n, pairs), g)


# ---------------------------------------------------------------------------
# Plain-text rendering: one rule per line, children indented.

def _rule_label(node: Derivation) -> str:
    if node.rule == PHI_MIX:
        p = node.param
        return f"PhiMix({p.numerator}/{p.denominator})"
    return node.rule


def serialize_derivation(d: Derivation) -> str:
    """Indented trace of a derivation, bounds as exact fractions."""
    lines: list = []
    todo = [(d, 0)]
    while todo:
        node, depth = todo.pop()
        b = node.bound
        lines.append(
            "  " * depth
            + f"{_rule_label(node)} {b.numerator}/{b.denominator}")
        todo += ((p, depth + 1) for p in reversed(node.premises))
    return "\n".join(lines)
