"""Canonical forms for star-free circuits, and exact equality via them.

Every stochastic map over Boolean words has one normal form: a case
split on each input bit (last bit first), ending in a weighted tree over
output words.  The tree lists its support in ascending order, each node
carrying the probability of its head relative to the mass that is left,
so ``Node(p, x, rest)`` denotes ``p * |x> + (1-p) * rest``.

Normalization goes through evaluation: the form is synthesized from the
denotation, and two maps have equal forms exactly when they are equal.
Normal forms are canonical, so ``decide_equal`` compares the two maps
themselves; forms are built only to be shown (``pbc normalize``) and
as the terms inside certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .objects import bools
from .terms import (
    Id, Seq, Swap, Term, coin, copy_gen, par, phi_case, phi_mix, seq,
)
from .semantics import Series, StochMap, bit_string, denote

__all__ = [
    "Leaf", "Node", "Tree", "Case", "NormalForm", "WeightedTree",
    "normalize", "synthesize_from_map", "nf_to_term", "decide_equal",
    "nf_pretty", "split_last_bit", "case_term",
]


@dataclass(frozen=True, slots=True)
class Leaf:
    """The whole remaining mass sits on one output word."""

    value: int


@dataclass(frozen=True, slots=True)
class Node:
    """Weight p on ``head``, the rest of the mass in ``rest``; heads
    strictly increase along the spine."""

    p: Fraction
    head: int
    rest: "WeightedTree"


WeightedTree = Leaf | Node


@dataclass(frozen=True, slots=True)
class Tree:
    """Normal form of an input-free map: a single weighted tree."""

    tree: WeightedTree
    out_arity: int

    @property
    def in_arity(self) -> int:
        return 0


@dataclass(frozen=True, slots=True)
class Case:
    """Split on the last input bit."""

    on_last_1: "NormalForm"
    on_last_0: "NormalForm"

    @property
    def in_arity(self) -> int:
        return self.on_last_1.in_arity + 1

    @property
    def out_arity(self) -> int:
        return self.on_last_1.out_arity


NormalForm = Tree | Case


def _build_spine(items) -> WeightedTree:
    # items: ascending (value, mass) pairs, masses positive.  Built from
    # the end: each head is weighted by the mass from it on.
    value, total = items[-1]
    tree: WeightedTree = Leaf(value)
    for value, mass in reversed(items[:-1]):
        total += mass
        tree = Node(mass / total, value, tree)
    return tree


def split_last_bit(f: StochMap) -> tuple[StochMap, StochMap]:
    """The rows of f whose last input bit is 1, and those where it is 0."""
    n = f.in_arity - 1
    return (StochMap(n, f.out_arity, f.rows[1::2]),
            StochMap(n, f.out_arity, f.rows[0::2]))


def synthesize_from_map(f: StochMap) -> NormalForm:
    """Build the canonical form of a stochastic map.

    Recursion on the input arity: split the rows on the last input bit;
    at arity zero sort the one remaining row's support.
    """
    if f.in_arity == 0:
        items = sorted(f.rows[0].items())
        return Tree(_build_spine(items), f.out_arity)
    on1, on0 = split_last_bit(f)
    return Case(synthesize_from_map(on1), synthesize_from_map(on0))


def normalize(t: Term) -> NormalForm:
    """Normal form of a star-free term, via its denotation."""
    return synthesize_from_map(denote(t))


def _word_term(value: int, n: int, words: dict) -> Term:
    """Deterministic output word as a tensor of deterministic coins,
    built once per ``words`` table."""
    term = words.get((value, n))
    if term is None:
        bits = [(value >> (n - 1 - i)) & 1 for i in range(n)]
        term = words[value, n] = par(*(coin(b) for b in bits))
    return term


def _tree_term(tree: WeightedTree, n: int, words: dict) -> Term:
    # Built from the end of the spine: a spine is as long as its
    # support, too deep to recurse on.
    spine = []
    while isinstance(tree, Node):
        spine.append(tree)
        tree = tree.rest
    out = _word_term(tree.value, n, words)
    for node in reversed(spine):
        out = phi_mix(_word_term(node.head, n, words), out, bools(n), node.p)
    return out


def case_term(in_arity: int, out_arity: int, on1: Term, on0: Term) -> Term:
    """The case shape over two branch terms, split on the last input bit.

    It groups as prewiring ; (branches ; phi) so that a congruence step
    can address the branch-and-choice core as one subterm.
    """
    lead = bools(in_arity - 1)
    prewiring = seq(
        par(copy_gen(lead), Id(bools(1))),
        par(Id(lead), Swap(lead, bools(1))),
    )
    return Seq(prewiring, phi_case(on1, on0, bools(out_arity)))


def nf_to_term(nf: NormalForm) -> Term:
    """Reconstruct a term in the literal normal-form shape; equal output
    words are one term object."""
    return _nf_term(nf, {})


def _nf_term(nf: NormalForm, words: dict) -> Term:
    """``nf_to_term`` with its words kept in, and taken from, ``words``."""
    if isinstance(nf, Tree):
        return _tree_term(nf.tree, nf.out_arity, words)
    return case_term(nf.in_arity, nf.out_arity, _nf_term(nf.on_last_1, words),
                     _nf_term(nf.on_last_0, words))


def decide_equal(f: Term, g: Term) -> bool:
    """Exact semantic equality of two star-free terms of one type."""
    return Series().difference(f, g) is None


# ---------------------------------------------------------------------------
# Plain-text rendering for golden tests.

def _render(nf: NormalForm, indent: str, out) -> None:
    if isinstance(nf, Case):
        out.append(f"{indent}last=1:")
        _render(nf.on_last_1, indent + "  ", out)
        out.append(f"{indent}last=0:")
        _render(nf.on_last_0, indent + "  ", out)
        return
    tree = nf.tree
    while isinstance(tree, Node):
        out.append(
            f"{indent}{tree.p} |{bit_string(tree.head, nf.out_arity)}>")
        tree = tree.rest
    out.append(f"{indent}|{bit_string(tree.value, nf.out_arity)}>")


def nf_pretty(nf: NormalForm) -> str:
    """Indented case tree; spine nodes carry their conditional weight,
    the closing line takes whatever mass remains."""
    out: list[str] = []
    _render(nf, "", out)
    return "\n".join(out)
