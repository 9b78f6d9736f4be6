"""Dense reference semantics for differential tests.

This is the recursion ``pbc.denote`` used before it became a forward
evaluator: every subterm is materialized as a full stochastic map and
glued with the public ``compose_maps``, ``tensor_maps`` and
``identity_map``, with a normalized Fraction on every multiply.  It is
slow and kept only as the yardstick the evaluator is checked against,
as are ``apply_map`` and ``tv_distance_overlap``, second formulas for a
map's push-forward and for the total variation distance.
"""

from fractions import Fraction

from pbc import (
    COIN, COPY, DISCARD, PHI, Gen, Id, Par, PBCError, Seq, StochMap, Swap,
    bernoulli, compose_maps, dirac, identity_map, tensor_maps, width,
)


def apply_map(f: StochMap, arg) -> dict:
    """Push a distribution (or a single input int) through a map."""
    if isinstance(arg, int):
        arg = dirac(arg)
    out = {}
    for value, p in arg.items():
        for result, q in f.rows[value].items():
            out[result] = out.get(result, 0) + p * q
    return out


def tv_distance_overlap(v: dict, w: dict) -> Fraction:
    """Total variation distance as one minus the overlapping mass."""
    common = set(v) & set(w)
    return 1 - sum((min(v[k], w[k]) for k in common), Fraction(0))


def _mask(n: int) -> int:
    return (1 << n) - 1


def _denote_gen(term: Gen) -> StochMap:
    if term.kind == COIN:
        return StochMap(0, 1, (bernoulli(term.p),))
    w = width(term.at)
    if term.kind == COPY:
        return StochMap(w, 2 * w,
                        tuple(dirac((i << w) | i) for i in range(1 << w)))
    if term.kind == DISCARD:
        return StochMap(w, 0, tuple(dirac(0) for _ in range(1 << w)))
    if term.kind == PHI:
        rows = []
        for i in range(1 << (2 * w + 1)):
            first = i >> (w + 1)
            bit = (i >> w) & 1
            last = i & _mask(w)
            rows.append(dirac(first if bit else last))
        return StochMap(2 * w + 1, w, tuple(rows))
    raise PBCError(f"unknown generator kind {term.kind!r}")


def reference_denote(term) -> StochMap:
    """The stochastic map of a star-free term, built densely."""
    if isinstance(term, Id):
        return identity_map(width(term.obj))
    if isinstance(term, Gen):
        return _denote_gen(term)
    if isinstance(term, Swap):
        wl = width(term.left)
        wr = width(term.right)
        rows = []
        for i in range(1 << (wl + wr)):
            left = i >> wr
            right = i & _mask(wr)
            rows.append(dirac((right << wl) | left))
        return StochMap(wl + wr, wl + wr, tuple(rows))
    if isinstance(term, Seq):
        return compose_maps(reference_denote(term.first),
                            reference_denote(term.second))
    if isinstance(term, Par):
        return tensor_maps(reference_denote(term.left),
                           reference_denote(term.right))
    raise PBCError(f"not a star-free term: {term!r}")
