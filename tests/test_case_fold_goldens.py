"""Pinned bytes of normal forms, their terms and tight certificates.

A normal form, its term and a tight certificate are all one case split
on the input bits over the rows of a map.  This module pins, for a
fixed corpus, the printed certificate, the printed endpoints of every
certificate node, the number of term objects the certificate holds,
and the printed normal form and normal-form term of each side, as
SHA-256 digests in ``data/golden/case_fold.json``.  The corpus is the
axiom pairs, seeded ``circuitgen`` pairs, and pairs at the edges of the
case split: input arity 0, 1 and 8, pairs equal on exactly one half of
a split, and pairs equal on every row.

Normal forms are compared by their printed text only: the generated
``==`` of ``Node`` recurses along the spine.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from pbc import (
    B,
    Id,
    Par,
    Seq,
    Swap,
    TauStar,
    axiom_corpus,
    bools,
    check_derivation,
    coin,
    discard_gen,
    nf_pretty,
    nf_to_term,
    normalize,
    par,
    phi_gen,
    pretty_term,
    seq,
    serialize_derivation,
    synthesize_tight_derivation,
)
from pbc.proofs import PHI_CASE, REFL, SEQ_RIGHT, WEAKEN

from circuitgen import random_circuit

GOLDEN = Path(__file__).parent / "data" / "golden" / "case_fold.json"


def _upper():
    """B -> B: a fair coin on input 1, a constant 0 on input 0."""
    return seq(par(coin(Fraction(1, 2)), Id(B), coin(0)), phi_gen(B))


def _edge_pairs():
    third, half = Fraction(1, 3), Fraction(1, 2)
    yield "arity0-overlap", par(coin(third), coin(half)), par(
        coin(half), coin(Fraction(1, 5)))
    yield "arity0-disjoint", coin(1), coin(0)
    yield "arity0-equal", par(coin(half), coin(half)), seq(
        par(coin(half), coin(half)), Swap(B, B))
    yield "arity1", Id(B), seq(discard_gen(B), coin(third))
    rng = random.Random(8)
    yield "arity8", *(random_circuit(rng, 8, 2, max_gens=14, max_wires=9)
                      for _ in range(2))
    # The last input bit against its AND with the one before it.
    yield "arity8-sparse", par(discard_gen(bools(7)), Id(B)), par(
        discard_gen(bools(6)), seq(par(Id(bools(2)), coin(0)), phi_gen(B)))
    # Equal where the last input bit is 0, apart where it is 1: a Refl
    # half joins a case at the root.
    yield "equal-on-last-0", par(discard_gen(B), Id(B)), par(
        discard_gen(B), _upper())
    # The same at the deepest split, on the first input bit.
    yield "equal-on-first-0", par(Id(B), discard_gen(B)), par(
        _upper(), discard_gen(B))
    yield "equal-everywhere", Id(bools(2)), seq(Swap(B, B), Swap(B, B))
    yield "equal-everywhere-wide", par(Id(B), coin(third), Id(B)), par(
        Id(B), seq(coin(third), Id(B)), Id(B))


def corpus():
    for name, lhs, rhs in axiom_corpus():
        yield f"axiom/{name}", lhs, rhs
    rng = random.Random(7)
    for i in range(40):
        yield f"random3x3/{i:02d}", *(random_circuit(rng, 3, 3)
                                      for _ in range(2))
    rng = random.Random(11)
    for i in range(12):
        n_in, n_out = rng.randint(0, 3), rng.randint(1, 3)
        yield f"mixed/{i:02d}-{n_in}x{n_out}", *(
            random_circuit(rng, n_in, n_out, max_gens=12, max_wires=5)
            for _ in range(2))
    for name, lhs, rhs in _edge_pairs():
        yield f"edge/{name}", lhs, rhs


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _nodes(d):
    todo = [d]
    while todo:
        node = todo.pop()
        yield node
        todo += reversed(node.premises)


def _term_objects(d) -> int:
    """Distinct term objects reachable from the certificate's endpoints."""
    seen, todo = set(), [t for node in _nodes(d) for t in node.endpoints]
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if isinstance(t, Seq):
            todo += (t.first, t.second)
        elif isinstance(t, Par):
            todo += (t.left, t.right)
        elif isinstance(t, TauStar):
            todo.append(t.body)
    return len(seen)


def record(lhs, rhs) -> dict:
    d = synthesize_tight_derivation(lhs, rhs)
    forms = [normalize(t) for t in (lhs, rhs)]
    return {
        "derivation": _digest([serialize_derivation(d)]),
        "endpoints": _digest(pretty_term(t) for node in _nodes(d)
                             for t in node.endpoints),
        "objects": _term_objects(d),
        "normal_forms": [_digest([nf_pretty(nf)]) for nf in forms],
        "normal_form_terms": [_digest([pretty_term(nf_to_term(nf))])
                              for nf in forms],
    }


CASES = list(corpus())


def test_the_corpus_covers_the_edges_of_the_case_split():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(name for name, _, _ in CASES)
    assert sum(name.startswith("axiom/") for name, _, _ in CASES) == 34


@pytest.mark.parametrize("name, lhs, rhs", CASES,
                         ids=[name for name, _, _ in CASES])
def test_certificates_and_normal_forms_keep_their_bytes(name, lhs, rhs):
    assert record(lhs, rhs) == json.loads(GOLDEN.read_text())[name]


def _core(d):
    """The derivation between the two normal-form terms, under the
    zero-cost bridges to the given terms."""
    return d.premises[1].premises[0]


def test_refl_halves_join_into_one_refl_and_a_case():
    lhs, rhs = dict((n, (f, g)) for n, f, g in _edge_pairs())[
        "equal-on-last-0"]
    d = synthesize_tight_derivation(lhs, rhs)
    assert check_derivation(d) == Fraction(1, 2)
    core = _core(d)
    assert core.rule == SEQ_RIGHT
    (case,) = core.premises
    assert case.rule == PHI_CASE
    on1, on0 = case.premises
    # The rows 00 and 10 are equal: their two Refl leaves join into one
    # Refl over a case term, weakened to the bound of the half that
    # differs, and joined with it by a case.
    assert on0.rule == WEAKEN and on0.premises[0].rule == REFL
    assert on0.bound == on1.bound == Fraction(1, 2)
    assert on0.lhs is on0.rhs and isinstance(on0.lhs, Seq)


@pytest.mark.parametrize("term, depth", [
    (coin(Fraction(1, 3)), 0),
    (Id(B), 1),
    (par(discard_gen(bools(7)), Id(B)), 8),
])
def test_normal_form_text_has_one_case_level_per_input(term, depth):
    text = nf_pretty(normalize(term))
    assert text.count("last=1:") == (1 << depth) - 1
    widest = max(len(line) - len(line.lstrip()) for line in text.split("\n"))
    assert widest == 2 * depth
