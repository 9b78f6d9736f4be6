"""Canonical forms for star-free circuits, and exact equality via them.

Every stochastic map over Boolean words has one normal form: a case
split on each input bit (last bit first), ending in a weighted tree over
output words.  The tree lists its support in ascending order, each node
carrying the probability of its head relative to the mass that is left,
so ``Node(p, x, rest)`` denotes ``p * |x> + (1-p) * rest``.

Structural equality of normal forms coincides with semantic equality of
the underlying maps, which is what ``decide_equal`` relies on.
Normalization itself goes through evaluation: synthesize the form from
the denotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .objects import UNIT, bools
from .terms import (
    Id, Seq, Swap, Term,
    coin, copy_gen, par, phi_gen, phi_p, same_type, seq,
)
from .semantics import StochMap, bit_string, denote

__all__ = [
    "Leaf", "Node", "Tree", "Case", "NormalForm", "WeightedTree",
    "normalize", "synthesize_from_map", "nf_to_term", "decide_equal",
    "nf_equal", "nf_pretty",
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


def synthesize_from_map(f: StochMap) -> NormalForm:
    """Build the canonical form of a stochastic map.

    Recursion on the input arity: split the rows on the last input bit;
    at arity zero sort the one remaining row's support.
    """
    if f.in_arity == 0:
        items = sorted(f.rows[0].items())
        return Tree(_build_spine(items), f.out_arity)
    on1 = StochMap(f.in_arity - 1, f.out_arity, f.rows[1::2])
    on0 = StochMap(f.in_arity - 1, f.out_arity, f.rows[0::2])
    return Case(synthesize_from_map(on1), synthesize_from_map(on0))


def normalize(t: Term) -> NormalForm:
    """Normal form of a star-free term, via its denotation."""
    return synthesize_from_map(denote(t))


def _word_term(value: int, n: int) -> Term:
    """Deterministic output word as a tensor of deterministic coins."""
    if n == 0:
        return Id(UNIT)
    bits = [(value >> (n - 1 - i)) & 1 for i in range(n)]
    return par(*(coin(b) for b in bits))


def _tree_term(tree: WeightedTree, n: int) -> Term:
    # Built from the end of the spine: a spine is as long as its
    # support, too deep to recurse on.
    spine = []
    while isinstance(tree, Node):
        spine.append(tree)
        tree = tree.rest
    out = _word_term(tree.value, n)
    for node in reversed(spine):
        out = seq(par(_word_term(node.head, n), out),
                  phi_p(bools(n), node.p))
    return out


def nf_to_term(nf: NormalForm) -> Term:
    """Reconstruct a term in the literal normal-form shape.

    The case shape groups as prewiring ; (branches ; phi) so that a
    congruence step can address the branch-and-choice core as one
    subterm.
    """
    if isinstance(nf, Tree):
        return _tree_term(nf.tree, nf.out_arity)
    lead = bools(nf.in_arity - 1)
    prewiring = seq(
        par(copy_gen(lead), Id(bools(1))),
        par(Id(lead), Swap(lead, bools(1))),
    )
    core = seq(
        par(nf_to_term(nf.on_last_1), Id(bools(1)),
            nf_to_term(nf.on_last_0)),
        phi_gen(bools(nf.out_arity)),
    )
    return Seq(prewiring, core)


def decide_equal(f: Term, g: Term) -> bool:
    """Exact semantic equality of two star-free terms of one type."""
    same_type(f, g)
    return nf_equal(normalize(f), normalize(g))


def nf_equal(a: NormalForm, b: NormalForm) -> bool:
    """Structural equality of two normal forms of one type, walked with
    a loop: a spine is as long as its support, too deep to recurse on."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if isinstance(a, Case):
            todo.append((a.on_last_1, b.on_last_1))
            todo.append((a.on_last_0, b.on_last_0))
            continue
        s, t = a.tree, b.tree
        while isinstance(s, Node) and isinstance(t, Node):
            if (s.p, s.head) != (t.p, t.head):
                return False
            s, t = s.rest, t.rest
        if not (isinstance(s, Leaf) and isinstance(t, Leaf)
                and s.value == t.value):
            return False
    return True


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
