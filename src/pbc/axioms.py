"""The equational corpus: structural axioms and derived laws.

``axiom_corpus`` returns named pairs of closed terms that are provably
equal in the calculus.  The pairs serve as a semantic test bed: both
sides of every pair must denote identical stochastic maps, and the
equality decision procedure must accept them.

Object-indexed laws appear instantiated at the single Boolean and at the
Boolean pair; laws quantified over a morphism are instantiated with a
couple of concrete circuits each.
"""

from __future__ import annotations

from fractions import Fraction

from .objects import B, UNIT, Object, bools, tensor
from .terms import (
    Id, Seq, Swap, Term,
    coin, copy_gen, discard_gen, par, phi_gen, phi_mix, phi_p, seq,
)
from .combinators import _phi_split, and_gate, not_gate, xor_gate
from .normalform import case_term

__all__ = ["axiom_corpus"]


def _mix(x: Term, y: Term, p, dom: Object, cod: Object) -> Term:
    """Convex combination of two parallel-typed circuits: copy the input,
    run both, choose the left result with probability p."""
    return Seq(copy_gen(dom), phi_mix(x, y, cod, p))


def _case_split(f: Term, in_bits: int) -> Term:
    """Case distinction on the last input bit of f: Bool^in_bits -> B,
    the normal form's case shape over f with that bit pinned to 1 on
    one branch and 0 on the other."""
    lead = Id(bools(in_bits - 1))
    f1 = seq(par(lead, coin(1)), f) if in_bits > 1 else seq(coin(1), f)
    f0 = seq(par(lead, coin(0)), f) if in_bits > 1 else seq(coin(0), f)
    return case_term(in_bits, 1, f1, f0)


def _phi_as(a, b, obj: Object):
    """Both sides of reassociating two nested choices; the right side
    uses the adjusted biases d = ab and c = (1-a)b / (1-ab)."""
    a = Fraction(a)
    b = Fraction(b)
    d = a * b
    c = (1 - a) * b / (1 - a * b)
    lhs = seq(par(phi_p(obj, a), Id(obj)), phi_p(obj, b))
    rhs = seq(par(Id(obj), phi_p(obj, c)), phi_p(obj, d))
    return lhs, rhs


def _phi_times(left: Object, right: Object) -> tuple[Term, Term]:
    """The conditional at a tensor versus two conditionals sharing one
    copied condition bit."""
    return (phi_gen(tensor(left, right)),
            _phi_split(left, right, phi_gen(left), phi_gen(right)))


def axiom_corpus() -> list[tuple[str, Term, Term]]:
    pairs: list[tuple[str, Term, Term]] = []
    third = Fraction(1, 3)

    for obj, tag in ((B, ""), (bools(2), "@B^2")):
        cp = copy_gen(obj)
        dl = discard_gen(obj)
        i = Id(obj)
        # comonoid structure of copy and discard
        pairs.append(("copy-un" + tag, seq(cp, par(dl, i)), i))
        pairs.append(("copy-co" + tag, seq(cp, Swap(obj, obj)), cp))
        pairs.append(("copy-as" + tag,
                      seq(cp, par(cp, i)), seq(cp, par(i, cp))))
        # choice structure
        pairs.append(("phi-1" + tag, phi_p(obj, 1), par(i, dl)))
        pairs.append(("phi-0" + tag, phi_p(obj, 0), par(dl, i)))
        pairs.append(("phi-co" + tag,
                      phi_p(obj, third),
                      seq(Swap(obj, obj), phi_p(obj, 1 - third))))
        pairs.append(("phi-idemp" + tag,
                      seq(par(cp, Id(B)), par(i, Swap(obj, B)), phi_gen(obj)),
                      par(i, discard_gen(B))))

    # discard naturality, at a deterministic and a probabilistic circuit
    pairs.append(("discard-nat",
                  seq(not_gate(), discard_gen(B)), discard_gen(B)))
    pairs.append(("discard-nat@xor",
                  seq(xor_gate(), discard_gen(B)), discard_gen(bools(2))))
    pairs.append(("discard-nat@coin",
                  seq(coin(third), discard_gen(B)), discard_gen(UNIT)))

    # deterministic coins copy to two coins
    pairs.append(("1-det", seq(coin(1), copy_gen(B)), par(coin(1), coin(1))))
    pairs.append(("0-det", seq(coin(0), copy_gen(B)), par(coin(0), coin(0))))

    # the conditional against deterministic data
    pairs.append(("phi-B",
                  seq(par(coin(1), Id(B), coin(0)), phi_gen(B)), Id(B)))
    pairs.append(("phi-I", phi_gen(UNIT), discard_gen(B)))
    pairs.append(("phi-det-1",
                  seq(par(coin(1), Id(B), coin(1)), phi_gen(B)),
                  seq(discard_gen(B), coin(1))))
    pairs.append(("phi-det-0",
                  seq(par(coin(0), Id(B), coin(0)), phi_gen(B)),
                  seq(discard_gen(B), coin(0))))

    # reassociation of nested choices
    lhs, rhs = _phi_as(Fraction(1, 2), third, B)
    pairs.append(("phi-as", lhs, rhs))
    lhs, rhs = _phi_as(Fraction(3, 4), Fraction(2, 3), bools(2))
    pairs.append(("phi-as@B^2", lhs, rhs))

    # naturality of the conditional
    pairs.append(("phi-nat",
                  seq(phi_gen(B), not_gate()),
                  seq(par(not_gate(), Id(B), not_gate()), phi_gen(B))))
    pairs.append(("phi-nat@xor",
                  seq(phi_gen(bools(2)), xor_gate()),
                  seq(par(xor_gate(), Id(B), xor_gate()), phi_gen(B))))

    # the conditional at a tensor
    lhs, rhs = _phi_times(B, B)
    pairs.append(("phi-times", lhs, rhs))
    lhs, rhs = _phi_times(B, bools(2))
    pairs.append(("phi-times@B^2", lhs, rhs))

    # case distinction on an input bit
    pairs.append(("B-split", _case_split(xor_gate(), 2), xor_gate()))
    pairs.append(("B-split@and", _case_split(and_gate(), 2), and_gate()))
    pairs.append(("B-split@not", _case_split(not_gate(), 1), not_gate()))

    # choices distribute over a common precursor
    pairs.append(("phi-distr",
                  seq(not_gate(), _mix(not_gate(), Id(B), third, B, B)),
                  _mix(seq(not_gate(), not_gate()), not_gate(), third, B, B)))
    pairs.append(("phi-distr@B^2",
                  seq(copy_gen(B),
                      _mix(xor_gate(), and_gate(), Fraction(2, 5),
                           bools(2), B)),
                  _mix(seq(copy_gen(B), xor_gate()),
                       seq(copy_gen(B), and_gate()), Fraction(2, 5), B, B)))

    return pairs
