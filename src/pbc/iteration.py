"""Instantiating parametric iteration at concrete sizes.

A term built with ``TauStar`` loops a body over streams: the body consumes
the loop state plus one element of each input stream and emits one element
of each output stream plus the next state.  At a concrete size k the loop
unrolls into an ordinary circuit; ``instantiate`` performs that unrolling
everywhere in a term, replacing each starred object by a k-fold power.

The unrolling at k+1 peels one element off every input stream, runs the
body once, recurses, then files the fresh output elements back into their
streams.  Streams of several objects are stored block-wise (all elements
of the first stream, then all of the second, and so on), so peeling and
filing are wiring permutations; ``push_term`` and ``pop_term`` (defined in
``terms``) build them.

``instantiate`` is the definition.  The evaluator reads the same
unrolling equation, with the same pop and push wiring, directly
(``denote(term, k)``, ``semantics.Series``) without building the
unrolled term, so comparing at a size never instantiates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .objects import BoolAtom, Object, Star, power, tensor
from .terms import (
    Gen, Id, Par, PBCError, Seq, Swap, TauStar, Term, par, pop_term,
    push_term, same_type, seq, typecheck,
)
from .semantics import Series

__all__ = [
    "TupleSpec", "dot_power", "push_term", "pop_term", "tau_k_expand",
    "instantiate_object", "instantiate", "star_equiv_bounded",
    "EqualUpTo", "Counterexample", "K_TEST",
]

K_TEST = 6


@dataclass(frozen=True, slots=True)
class TupleSpec:
    """State object plus input and output stream signatures of a loop."""

    state: Object
    inputs: tuple
    outputs: tuple

    def in_word(self, k: int) -> Object:
        return dot_power(self.inputs, k)

    def out_word(self, k: int) -> Object:
        return dot_power(self.outputs, k)


def dot_power(blocks, k: int) -> Object:
    """Block-wise power: each listed object repeated k times in place."""
    if k < 0:
        raise ValueError(f"negative power {k}")
    return tensor(*(power(b, k) for b in blocks))


def tau_k_expand(k: int, spec: TupleSpec, body: Term) -> Term:
    """Unroll a loop body k times into a star-free term.

    ``body`` must already be star-free of type
    ``state (x) inputs.1 -> outputs.1 (x) state``; the result has type
    ``state (x) inputs.k -> outputs.k (x) state``.
    """
    if k < 0:
        raise ValueError(f"cannot unroll {k} times")
    typecheck(TauStar(spec.state, spec.inputs, spec.outputs, body))
    result: Term = Id(spec.state)
    for j in range(k):
        # grow from tau^j to tau^(j+1)
        stage = seq(
            par(Id(spec.state), pop_term(spec.inputs, j)),
            par(body, Id(spec.in_word(j))),
            par(Id(spec.out_word(1)), result),
            par(push_term(spec.outputs, j), Id(spec.state)),
        )
        result = stage
    return result


def instantiate_object(k: int, obj: Object) -> Object:
    """Replace every starred atom by k copies of its instantiated inner."""
    out = []
    for atom in obj:
        if isinstance(atom, BoolAtom):
            out.append((atom,))
        elif isinstance(atom, Star):
            out.append(instantiate_object(k, atom.inner) * k)
        else:
            raise PBCError(f"not an atom: {atom!r}")
    return tensor(*out)


_DONE = object()  # stack marker: the composite below it has its parts


def instantiate(k: int, term: Term) -> Term:
    """Unroll every loop in ``term`` at size k.

    The result is star-free whenever the original typechecks, and equals
    the original term when that is already star-free.  One post-order
    loop over an explicit stack builds it, so nesting of any depth
    unrolls without recursion.
    """
    if k < 0:
        raise ValueError(f"negative instantiation size {k}")
    built: list = []  # the instantiated subterms, left to right
    todo: list = [term]
    while todo:
        t = todo.pop()
        if t is _DONE:
            t = todo.pop()
            if isinstance(t, TauStar):
                spec = TupleSpec(
                    instantiate_object(k, t.state),
                    tuple(instantiate_object(k, b) for b in t.inputs),
                    tuple(instantiate_object(k, b) for b in t.outputs))
                built[-1] = tau_k_expand(k, spec, built[-1])
            else:
                second = built.pop()
                built[-1] = type(t)(built[-1], second)
        elif isinstance(t, Id):
            built.append(Id(instantiate_object(k, t.obj)))
        elif isinstance(t, Gen):
            built.append(t)  # typecheck keeps generators at star-free words
        elif isinstance(t, Swap):
            built.append(Swap(instantiate_object(k, t.left),
                              instantiate_object(k, t.right)))
        elif isinstance(t, Seq):
            todo += (t, _DONE, t.second, t.first)
        elif isinstance(t, Par):
            todo += (t, _DONE, t.right, t.left)
        elif isinstance(t, TauStar):
            todo += (t, _DONE, t.body)
        else:
            raise PBCError(f"not a term: {t!r}")
    return built[0]


# ---------------------------------------------------------------------------
# Bounded equivalence of parametric terms.

@dataclass(frozen=True, slots=True)
class EqualUpTo:
    """Both terms denote the same map at every size up to ``k_max``."""

    k_max: int

    def __bool__(self):
        return True


@dataclass(frozen=True, slots=True)
class Counterexample:
    """First size and input where the two denotations part ways."""

    k: int
    input_value: int
    in_arity: int
    lhs_row: dict
    rhs_row: dict

    def __bool__(self):
        return False


def star_equiv_bounded(s: Term, t: Term, k_max: int = K_TEST):
    """Compare two parametric terms at every size 0..k_max.

    Returns ``EqualUpTo(k_max)`` when both terms denote equal maps at
    every size, else a ``Counterexample`` for the first disagreement.
    Both terms must share one parametric type.
    """
    same_type(s, t)
    if k_max < 0:
        raise PBCError(f"negative size bound {k_max}")
    series = Series()
    for k in range(k_max + 1):
        differs = series.difference(s, t, k)
        if differs is not None:
            return Counterexample(k, *differs)
    return EqualUpTo(k_max)
