"""Library of derived circuits.

Gates over single Booleans, stream plumbing (zip, unzip, cycle), the
star-lifted copy/discard/conditional, and the named constructions whose
decay behaviour the asymptotics module measures.  Everything returns a
plain term built from the six core formers, so each circuit typechecks,
instantiates and evaluates like hand-written syntax.
"""

from __future__ import annotations

from fractions import Fraction

from .objects import (
    UNIT, B, BoolAtom, Object, Star, bools, is_star_free, star, tensor,
)
from .terms import (
    Id, Swap, TauStar, Term,
    coin, copy_gen, discard_gen, exact_rational, par, permute_blocks, phi_gen,
    seq,
)
from .iteration import TupleSpec

__all__ = [
    "not_gate", "and_gate", "xor_gate", "eq_bit", "lazy_flip",
    "copy_at", "discard_at", "phi_at", "phi_p_at",
    "zip_streams", "unzip_streams", "cycle", "cycle_back",
    "otp_lhs", "otp_rhs", "otp_star_lhs", "otp_star_rhs",
    "all_1", "all_1_rhs", "eq_star",
    "keyguess_lhs", "keyguess_rhs",
    "vn_lhs", "vn_rhs",
    "newton_discard_instance", "newton_flip_instance",
]


# ---------------------------------------------------------------------------
# Boolean gates.  The conditional picks its first block when the middle
# Boolean is 1, so a gate is a matter of laying out the two branches.

def not_gate() -> Term:
    return seq(par(coin(0), Id(B), coin(1)), phi_gen(B))


def and_gate() -> Term:
    """Conjunction: condition on the first input, else constant 0."""
    return seq(Swap(B, B), par(Id(bools(2)), coin(0)), phi_gen(B))


def xor_gate() -> Term:
    """Exclusive or: copy the second input, negate one copy, select."""
    return seq(
        par(Id(B), copy_gen(B)),
        par(Swap(B, B), Id(B)),
        par(not_gate(), Id(bools(2))),
        phi_gen(B),
    )


def eq_bit() -> Term:
    """Equality of two Booleans, as negated xor."""
    return seq(xor_gate(), not_gate())


def lazy_flip(p) -> Term:
    """Channel that negates its input with probability p."""
    return seq(copy_gen(B), par(not_gate(), coin(p), Id(B)), phi_gen(B))


# ---------------------------------------------------------------------------
# Copy, discard and the conditional at arbitrary objects.  At star-free
# words these are the primitive generators; a starred atom turns into a
# loop that applies the inner circuit elementwise, and longer words split
# off their first atom and re-interleave.

def _star_lifted(obj: Object, at_word, at_star, at_split) -> Term:
    """A derived circuit at ``obj``: ``at_word(w)`` at a star-free word
    ``w``, ``at_star(a, inner, t)`` at a word ``a`` of one starred atom
    whose inner circuit is ``t``, and ``at_split(head, rest, th, tr)`` at
    a longer word, from the circuits at its first atom and at the rest.

    A word splits until its rest is star-free or one atom.  Inner words
    are built first, off an explicit stack, and each word's splits are
    folded right to left, so neither deep stars nor long words recurse.
    """
    built: dict = {}  # word -> its circuit

    def part(w: Object) -> Term:  # a star-free word or one starred atom
        if is_star_free(w):
            return at_word(w)
        return at_star(w, w[0].inner, built[w[0].inner])

    todo = [obj]
    while todo:
        word = todo.pop()
        inners = {a.inner for a in word if isinstance(a, Star)} - built.keys()
        if inners:
            todo += (word, *inners)  # the inner circuits come first
        elif is_star_free(word) or len(word) == 1:
            built[word] = part(word)
        else:
            base = len(word)  # where the star-free tail starts
            while isinstance(word[base - 1], BoolAtom):
                base -= 1
            base = min(base, len(word) - 1)  # the tail, else the last atom
            term = part(word[base:])
            for i in reversed(range(base)):
                head = word[i:i + 1]
                term = at_split(head, word[i + 1:], part(head), term)
            built[word] = term
    return built[obj]


def copy_at(obj: Object) -> Term:
    return _star_lifted(
        obj, copy_gen,
        lambda a, inner, t: TauStar(UNIT, (inner,), (inner, inner), t),
        lambda head, rest, th, tr: seq(
            par(th, tr),
            permute_blocks([head, head, rest, rest], [0, 2, 1, 3])))


def discard_at(obj: Object) -> Term:
    return _star_lifted(
        obj, discard_gen,
        lambda a, inner, t: TauStar(UNIT, (inner,), (), t),
        lambda head, rest, th, tr: par(th, tr))


def _phi_star(a: Object, inner: Object, t: Term) -> Term:
    body = seq(
        par(copy_gen(B), Id(tensor(inner, inner))),
        permute_blocks([B, B, inner, inner], [2, 0, 3, 1]),
        par(t, Id(B)),
    )
    return seq(
        permute_blocks([a, B, a], [1, 0, 2]),
        TauStar(B, (inner, inner), (inner,), body),
        par(Id(a), discard_gen(B)),
    )


def _phi_split(head: Object, rest: Object, th: Term, tr: Term) -> Term:
    return seq(
        par(Id(tensor(head, rest)), copy_gen(B), Id(tensor(head, rest))),
        permute_blocks([head, rest, B, B, head, rest],
                       [0, 2, 4, 1, 3, 5]),
        par(th, tr),
    )


def phi_at(obj: Object) -> Term:
    """Conditional at any object: type obj (x) B (x) obj -> obj.

    At a starred atom the single condition bit rides along as loop state,
    steering every element pair; it is discarded once the loop ends.
    """
    return _star_lifted(obj, phi_gen, _phi_star, _phi_split)


def phi_p_at(obj: Object, p) -> Term:
    """Probabilistic choice between two copies of obj, at any object."""
    return seq(par(Id(obj), coin(p), Id(obj)), phi_at(obj))


# ---------------------------------------------------------------------------
# Stream plumbing.

def zip_streams(a: Object, b: Object) -> Term:
    """Merge two streams into a stream of pairs."""
    return TauStar(UNIT, (a, b), (tensor(a, b),), Id(tensor(a, b)))


def unzip_streams(a: Object, b: Object) -> Term:
    """Split a stream of pairs into two streams."""
    return TauStar(UNIT, (tensor(a, b),), (a, b), Id(tensor(a, b)))


def cycle(a: Object) -> Term:
    """Rotate an element into the front of a stream, last one out."""
    return seq(TauStar(a, (a,), (a,), Id(tensor(a, a))), Swap(star(a), a))


def cycle_back(a: Object) -> Term:
    """Inverse rotation, built by cycling forward one short of a full turn."""
    return TauStar(tensor(a, star(a)), (), (), cycle(a))


# ---------------------------------------------------------------------------
# One-time pad.  The left side encrypts a message bit with a fresh uniform
# key and hands back ciphertext plus decryption; the right side is a fresh
# uniform bit next to the untouched message.

def otp_lhs() -> Term:
    return seq(
        par(coin(Fraction(1, 2)), Id(B)),
        par(copy_gen(B), Id(B)),
        par(Id(B), xor_gate()),
        Swap(B, B),
        par(copy_gen(B), Id(B)),
        par(Id(B), xor_gate()),
    )


def otp_rhs() -> Term:
    return par(coin(Fraction(1, 2)), Id(B))


def otp_star_lhs() -> Term:
    """The pad applied elementwise to a stream of message bits."""
    return TauStar(UNIT, (B,), (bools(2),), otp_lhs())


def otp_star_rhs() -> Term:
    return TauStar(UNIT, (B,), (bools(2),), otp_rhs())


# ---------------------------------------------------------------------------
# The conjunction-of-coins construction.  The left side flips one biased
# coin per step, emits it, and folds it into a running conjunction seeded
# with 1; the right side emits the same coins but pairs them with a
# constant 0.  The two differ only on the all-ones run of coins.

def all_1(p) -> Term:
    body = seq(
        par(seq(coin(p), copy_gen(B)), Id(B)),
        par(Id(B), and_gate()),
    )
    return seq(coin(1), TauStar(B, (), (B,), body))


def all_1_rhs(p) -> Term:
    return par(TauStar(UNIT, (), (B,), coin(p)), coin(0))


# ---------------------------------------------------------------------------
# Streamwise equality test: conjunction of elementwise comparisons.

def eq_star() -> Term:
    body = seq(par(Id(B), eq_bit()), and_gate())
    return seq(
        par(coin(1), Id(star(B)), Id(star(B))),
        TauStar(B, (B, B), (), body),
    )


# ---------------------------------------------------------------------------
# Guessing a uniformly drawn key, one fresh guess per element.  Each step
# draws a uniform key bit, emits it, compares it with the incoming guess
# and folds the comparison into a running conjunction.  The right side
# discards the guesses outright and answers with fresh keys and 0.

def keyguess_lhs() -> Term:
    body = seq(
        par(Id(B), seq(coin(Fraction(1, 2)), copy_gen(B)), Id(B)),
        par(Swap(B, B), eq_bit()),
        par(Id(B), and_gate()),
    )
    return seq(
        par(coin(1), Id(star(B))),
        TauStar(B, (B,), (B,), body),
    )


def keyguess_rhs() -> Term:
    return seq(
        discard_at(star(B)),
        par(TauStar(UNIT, (), (B,), coin(Fraction(1, 2))), coin(0)),
    )


# ---------------------------------------------------------------------------
# Repeated-toss debiasing.  The loop state is a candidate output bit plus
# a decided flag.  While undecided, each round either keeps waiting or
# locks in a fresh fair bit; once decided the state rides through
# untouched.  After k rounds the state is a fair decided bit except on the
# shrinking undecided branch, whose mass is |2p-1|^k.

def _vn_undecided_step(q) -> Term:
    # B -> B^2: with probability q stay undecided, else decide fairly.
    return seq(
        par(Id(B), coin(0), coin(q), coin(Fraction(1, 2)), coin(1)),
        phi_gen(bools(2)),
    )


def vn_lhs(p) -> Term:
    p = exact_rational(p)
    q = abs(2 * p - 1)
    body = seq(
        par(copy_gen(B), Id(B)),
        permute_blocks([B, B, B], [0, 2, 1]),
        par(par(Id(B), coin(1)), Id(B), _vn_undecided_step(q)),
        phi_gen(bools(2)),
    )
    return seq(par(coin(1), coin(0)), TauStar(bools(2), (), (), body))


def vn_rhs() -> Term:
    return par(coin(Fraction(1, 2)), coin(1))


# ---------------------------------------------------------------------------
# Concrete interchange instances: triples (f, g, h) with f from state to
# state such that running f before a single loop step g equals running the
# step h before f.  ``newton_bound_check`` in the asymptotics module turns
# these into the iterated comparison.

def newton_discard_instance():
    """Premise holds exactly: discarding the state commutes with a step
    that xors the state into a passthrough stream."""
    f = discard_gen(B)
    g = Id(B)
    h = seq(
        par(Id(B), copy_gen(B)),
        permute_blocks([B, B, B], [1, 0, 2]),
        par(Id(B), xor_gate()),
    )
    spec = TupleSpec(B, (B,), (B,))
    return f, g, h, spec


def newton_flip_instance():
    """Premise misses by exactly 1/4: the state is lazily flipped on one
    side while the other side flips each stream element instead."""
    f = lazy_flip(Fraction(3, 4))
    g = seq(Swap(B, B), par(lazy_flip(Fraction(1, 4)), Id(B)))
    h = Swap(B, B)
    spec = TupleSpec(B, (B,), (B,))
    return f, g, h, spec
