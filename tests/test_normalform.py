import random
from fractions import Fraction
from itertools import product

import pytest
from pbc import (
    B,
    Case,
    Gen,
    Id,
    Leaf,
    Node,
    PBCError,
    StochMap,
    Tree,
    bools,
    coin,
    copy_gen,
    decide_equal,
    denote,
    dirac,
    nf_pretty,
    nf_to_term,
    normalize,
    par,
    phi_p,
    seq,
    star,
    synthesize_from_map,
    typecheck,
)
from pbc.combinators import copy_at, otp_lhs, otp_rhs
from pbc.normalform import _build_spine

from circuitgen import random_circuit
from test_semantics import random_dist


# ---------------------------------------------------------------------------
# Shapes of the synthesis.

def test_dirac_gives_a_leaf():
    nf = synthesize_from_map(StochMap(0, 2, (dirac(0b10),)))
    assert nf == Tree(Leaf(0b10), 2)


def test_uniform_bit_gives_an_ascending_node():
    nf = normalize(coin("1/2"))
    assert nf == Tree(Node(Fraction(1, 2), 0, Leaf(1)), 1)


def test_identity_splits_on_the_last_input_bit():
    nf = normalize(Id(B))
    assert nf == Case(Tree(Leaf(1), 1), Tree(Leaf(0), 1))


def test_case_depth_equals_input_arity():
    nf = normalize(random_circuit(random.Random(8), 3, 1))
    depth = 0
    while isinstance(nf, Case):
        nf = nf.on_last_0
        depth += 1
    assert depth == 3


def test_spine_is_strictly_sorted_with_positive_weights():
    rng = random.Random(303)
    for _ in range(200):
        dist = random_dist(rng, rng.randint(1, 3))
        nf = synthesize_from_map(StochMap(0, 3, (dist,)))
        seen = []
        node = nf.tree
        while isinstance(node, Node):
            assert 0 < node.p < 1
            seen.append(node.head)
            node = node.rest
        seen.append(node.value)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)


def test_degenerate_coin_collapses_to_a_leaf():
    assert normalize(coin(0)) == Tree(Leaf(0), 1)
    assert normalize(coin(1)) == Tree(Leaf(1), 1)


# ---------------------------------------------------------------------------
# Integer rows: ``normalize`` reads the evaluator's rows, and a spine keeps
# only the ratios of its masses, so it must give the form of the map.

def _spine(tree):
    """A spine as its (weight, head) steps and its last word, walked."""
    steps = []
    while isinstance(tree, Node):
        assert type(tree.p) is Fraction
        steps.append((tree.p, tree.head))
        tree = tree.rest
    return steps, tree.value


@pytest.mark.parametrize("n_in", [0, 1, 2, 3, 8])
def test_normalize_is_the_normal_form_of_the_map(n_in):
    rng = random.Random(4040 + n_in)
    for _ in range(30 if n_in < 8 else 4):
        f = random_circuit(rng, n_in, rng.randint(0, 3),
                           max_wires=max(3, n_in))
        assert nf_pretty(normalize(f)) == nf_pretty(
            synthesize_from_map(denote(f)))


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_normalize_on_fair_coin_words_is_the_normal_form_of_the_map(n):
    coins = par(*[coin(Fraction(1, 2))] * n)
    assert nf_pretty(normalize(coins)) == nf_pretty(
        synthesize_from_map(denote(coins)))


def test_a_spine_of_int_masses_is_the_spine_of_their_ratios():
    rng = random.Random(5150)
    for _ in range(200):
        support = rng.sample(range(16), rng.randint(1, 8))
        ints = {y: rng.randint(1, 50) for y in support}
        scale = rng.randint(1, 7)
        den = sum(ints.values()) * rng.randint(1, 3)
        want = _spine(_build_spine(ints))
        assert _spine(_build_spine(
            {y: n * scale for y, n in ints.items()})) == want
        assert _spine(_build_spine(
            {y: Fraction(n, den) for y, n in ints.items()})) == want


# ---------------------------------------------------------------------------
# Canonicity.

def test_spec_equalities_normalize_together():
    one = coin(1)
    assert normalize(seq(one, copy_gen(B))) == normalize(par(one, one))
    assert decide_equal(seq(copy_gen(B), phi_p(B, "1/3")), Id(B))


def test_one_time_pad_is_decided_equal():
    assert decide_equal(otp_lhs(), otp_rhs())


def test_distinct_constants_are_decided_apart():
    assert not decide_equal(coin(1), coin(0))


def test_canonicity_on_all_deterministic_two_bit_functions():
    # every function Bool^2 -> Bool, as a table-driven map
    tables = list(product((0, 1), repeat=4))
    maps = [StochMap(2, 1, tuple(dirac(v) for v in tbl)) for tbl in tables]
    forms = [synthesize_from_map(m) for m in maps]
    for i, mi in enumerate(maps):
        for j, mj in enumerate(maps):
            assert (forms[i] == forms[j]) == (mi == mj)


def test_canonicity_on_random_circuits():
    rng = random.Random(606060)
    for _ in range(120):
        n_in, n_out = rng.randint(0, 2), rng.randint(0, 2)
        f = random_circuit(rng, n_in, n_out)
        g = random_circuit(rng, n_in, n_out)
        assert decide_equal(f, g) == (denote(f) == denote(g))


# ---------------------------------------------------------------------------
# Reconstruction.

def test_leaf_reconstructs_as_a_constant_word():
    t = nf_to_term(Tree(Leaf(0b10), 2))
    assert denote(t).rows[0] == dirac(0b10)


def test_reconstruction_round_trips_and_is_a_fixpoint():
    rng = random.Random(919)
    for _ in range(60):
        n_in, n_out = rng.randint(0, 2), rng.randint(0, 2)
        f = random_circuit(rng, n_in, n_out)
        nf = normalize(f)
        back = nf_to_term(nf)
        assert denote(back) == denote(f)
        assert normalize(back) == nf


def test_reconstructed_case_shape_is_the_mux():
    term = nf_to_term(normalize(Id(B)))
    # prewiring ; (branches beside the condition ; conditional)
    core = term.second
    assert isinstance(core.second, Gen)
    assert core.second.kind == "phi"


def test_star_terms_are_rejected():
    with pytest.raises(PBCError):
        normalize(copy_at(star(B)))
    with pytest.raises(PBCError):
        decide_equal(Id(star(B)), Id(star(B)))


def test_decide_equal_demands_equal_types():
    with pytest.raises(PBCError):
        decide_equal(coin("1/2"), Id(B))


# ---------------------------------------------------------------------------
# Pretty printing.

def test_pretty_golden_for_a_case_tree():
    text = nf_pretty(normalize(Id(B)))
    assert text == ("last=1:\n"
                    "  |1>\n"
                    "last=0:\n"
                    "  |0>")


def test_pretty_shows_spine_weights():
    text = nf_pretty(normalize(coin("1/3")))
    assert text == ("2/3 |0>\n"
                    "|1>")
