"""Canonical forms for star-free circuits, and exact equality via them.

Every stochastic map over Boolean words has one normal form: a case
split on each input bit (last bit first), ending in a weighted tree over
output words.  The tree lists its support in ascending order, each node
carrying the probability of its head relative to the mass that is left,
so ``Node(p, x, rest)`` denotes ``p * |x> + (1-p) * rest``.

Normalization goes through evaluation: the form is read off the
evaluator's rows, integer numerators over a denominator per input, with
a Fraction built only for each spine weight; two maps have equal forms
exactly when they are equal.
Normal forms are canonical, so ``decide_equal`` compares the two maps
themselves; forms are built only to be shown and as the terms inside
certificates, and ``pbc normalize`` prints one from the rows without
building it (``_rows_pretty``).  One fold over the rows, bottom up
(``_fold_cases``), builds a form, its term and, in ``proofs``, a tight
certificate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .objects import bools
from .terms import (
    Id, Seq, Swap, Term, coin, copy_gen, par, phi_case, phi_mix, seq,
)
from .semantics import Series, StochMap

__all__ = [
    "Leaf", "Node", "Tree", "Case", "NormalForm", "WeightedTree",
    "normalize", "synthesize_from_map", "nf_to_term", "decide_equal",
    "nf_pretty", "case_term",
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


def _build_spine(row: dict) -> WeightedTree:
    # Masses are positive ints or Fractions, of any total: only their
    # ratios are kept.  Built from the end: each head is weighted by the
    # mass from it on.
    items = sorted(row.items())
    value, total = items[-1]
    tree: WeightedTree = Leaf(value)
    for value, mass in reversed(items[:-1]):
        total += mass
        tree = Node(Fraction(mass, total), value, tree)
    return tree


def _fold_cases(leaves: list, case):
    """Join one leaf per input, in input order, into the case tree:
    ``case(on_last_1, on_last_0, arity)`` joins leaves i and i + half,
    which differ in the first input bit, level by level to the root."""
    level, arity = leaves, 0
    while len(level) > 1:
        half, arity = len(level) // 2, arity + 1
        level = [case(level[i + half], level[i], arity) for i in range(half)]
    return level[0]


def _form(rows, out_arity: int) -> NormalForm:
    """Each row's support sorted into a spine, the rows, in input order,
    joined by the case fold."""
    return _fold_cases([Tree(_build_spine(row), out_arity) for row in rows],
                       lambda on1, on0, _: Case(on1, on0))


def synthesize_from_map(f: StochMap) -> NormalForm:
    """Build the canonical form of a stochastic map."""
    return _form(f.rows, f.out_arity)


def normalize(t: Term) -> NormalForm:
    """Normal form of a star-free term, read off its exact integer rows:
    a spine weight is the only Fraction built."""
    n_out, rows = Series().rows(t)
    return _form([row for _, row in rows], n_out)


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


@functools.lru_cache(maxsize=64)
def _prewiring(in_arity: int) -> Term:
    """The wiring in front of a case split, one term per arity: it moves
    the last input bit between two copies of the others."""
    lead = bools(in_arity - 1)
    return seq(
        par(copy_gen(lead), Id(bools(1))),
        par(Id(lead), Swap(lead, bools(1))),
    )


def case_term(in_arity: int, out_arity: int, on1: Term, on0: Term) -> Term:
    """The case shape over two branch terms, split on the last input bit.

    It groups as prewiring ; (branches ; phi) so that a congruence step
    can address the branch-and-choice core as one subterm.
    """
    return Seq(_prewiring(in_arity), phi_case(on1, on0, bools(out_arity)))


def nf_to_term(nf: NormalForm) -> Term:
    """Reconstruct a term in the literal normal-form shape; equal output
    words are one term object."""
    n, words, level = nf.out_arity, {}, [nf]
    while isinstance(level[0], Case):  # the leaves, in input order
        level = [c.on_last_0 for c in level] + [c.on_last_1 for c in level]
    return _fold_cases(
        [_tree_term(leaf.tree, n, words) for leaf in level],
        lambda on1, on0, arity: case_term(arity, n, on1, on0))


def decide_equal(f: Term, g: Term) -> bool:
    """Exact semantic equality of two star-free terms of one type."""
    return Series().difference(f, g) is None


# ---------------------------------------------------------------------------
# Plain-text rendering for golden tests.

def _case_lines(root, split, leaf) -> str:
    """The lines of a case tree: ``split(node)`` is a case's branches
    ``(on_last_1, on_last_0)``, None at a leaf, whose lines ``leaf(node,
    indent)`` gives.  Each branch follows its ``last=`` heading, one
    indent deeper, and last=1 comes first."""
    out: list[str] = []
    todo = [(root, "", ())]  # a node, its indent and the lines heading it
    while todo:
        node, indent, heading = todo.pop()
        out += heading
        branches = split(node)
        if branches is None:
            out += leaf(node, indent)
            continue
        on1, on0 = branches
        inner = indent + "  "
        todo += ((on0, inner, (f"{indent}last=0:",)),
                 (on1, inner, (f"{indent}last=1:",)))
    return "\n".join(out)


def _ket(n: int):
    """The format of a spine line over n output wires, called with its
    indent, its head's weight, if any, and its head, which it prints as
    ``semantics.bit_string`` does."""
    return ("{}{}|" + ("{:0%db}" % n if n else "-") + ">").format


def nf_pretty(nf: NormalForm) -> str:
    """Indented case tree; spine nodes carry their conditional weight,
    the closing line takes whatever mass remains."""
    ket = _ket(nf.out_arity)

    def leaf(nf: Tree, indent: str) -> list:
        tree, lines = nf.tree, []
        while isinstance(tree, Node):
            lines.append(ket(indent, f"{tree.p} ", tree.head))
            tree = tree.rest
        lines.append(ket(indent, "", tree.value))
        return lines

    return _case_lines(
        nf, lambda nf: (nf.on_last_1, nf.on_last_0)
        if isinstance(nf, Case) else None, leaf)


def _rows_pretty(n_out: int, rows: list) -> str:
    """``nf_pretty`` of the normal form of the rows ``(den, {output:
    numerator})`` of a map, one per input in input order, read off the
    ints: a weight is a head's mass over the mass from it on, reduced
    by one gcd, and no form is built.  A case node ``(r, j)`` is the
    inputs equal to r modulo 2^j, split on bit j."""
    n_in, ket = len(rows).bit_length() - 1, _ket(n_out)

    def leaf(at: tuple, indent: str) -> list:
        items = sorted(rows[at[0]][1].items())
        value, total = items.pop()
        lines = [ket(indent, "", value)]
        for value, mass in reversed(items):
            total += mass
            g = math.gcd(mass, total)
            lines.append(ket(indent, f"{mass // g}/{total // g} ", value))
        lines.reverse()
        return lines

    return _case_lines(
        (0, 0), lambda at: None if at[1] == n_in else
        ((at[0] | 1 << at[1], at[1] + 1), (at[0], at[1] + 1)), leaf)
