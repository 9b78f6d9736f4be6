"""The evaluator's conditional node against the dense reference semantics.

``Series`` compiles ``(c x m x d) ; if<w>``, with the chooser m
``id<B>``, a coin or any one-wire circuit, as one node that reads m and
asks only for the arms it gives weight.  It is taken only when both arms
are w wires wide; any other split of the same wires runs as written, and
only that conditional does.  Either way the map must equal
``reference.reference_denote`` row for row.
"""

import random
import warnings
from fractions import Fraction

import pytest
from pbc import (
    B,
    Id,
    Par,
    axiom_corpus,
    bools,
    coin,
    denote,
    nf_to_term,
    normalize,
    par,
    phi_gen,
    phi_p,
    seq,
    synthesize_from_map,
)
from pbc.semantics import Series
from pbc.terms import phi_mix

from circuitgen import random_bias, random_circuit
from reference import reference_denote
from test_semantics import random_map


@pytest.fixture
def conds(monkeypatch):
    """Every conditional node compiled while the test runs, None for a
    stage that looked like one but whose arms are not of its width."""
    made = []
    cond = Series._cond
    monkeypatch.setattr(Series, "_cond", lambda self, *a: made.append(
        cond(self, *a)) or made[-1])
    return made


def assert_reference(term):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires and more warn
        fast = denote(term)
    slow = reference_denote(term)
    assert (fast.in_arity, fast.out_arity) == (slow.in_arity, slow.out_arity)
    for x, (got, want) in enumerate(zip(fast.rows, slow.rows)):
        assert got == want, f"row {x}"


def choosers(rng):
    """id<B>, a coin strictly between 0 and 1, and a random circuit with
    one output wire."""
    p = Fraction(rng.randint(1, 6), 7)
    return Id(B), coin(p), random_circuit(rng, rng.randint(0, 2), 1)


def arms(rng, a, b):
    """Random arms with a and b output wires."""
    return (random_circuit(rng, rng.randint(0, 2), a, max_wires=4),
            random_circuit(rng, rng.randint(0, 2), b, max_wires=4))


def test_both_shapes_match_the_reference(conds):
    rng = random.Random(13)
    for _ in range(30):
        w = rng.randint(0, 3)
        c, d = arms(rng, w, w)
        for m in choosers(rng):
            del conds[:]
            assert_reference(seq(par(c, m, d), phi_gen(bools(w))))
            assert conds and None not in conds
        p = Fraction(rng.randint(1, 6), 7)
        del conds[:]
        assert_reference(phi_mix(c, d, bools(w), p))
        assert conds and None not in conds


def test_the_choice_never_compiles_its_coin_stage_or_its_if(monkeypatch):
    rng = random.Random(17)
    c, d = arms(rng, 2, 2)
    term = phi_mix(c, d, bools(2), Fraction(1, 3))
    skipped = {id(term.first), id(term.first.left), id(term.second)}
    built = []
    build = Series._build
    monkeypatch.setattr(Series, "_build", lambda self, t, parts: built.append(
        id(t)) or build(self, t, parts))
    assert_reference(term)
    assert built and not skipped & set(built)


def test_deterministic_arms_and_chooser_make_a_deterministic_node():
    # not: (coin(0) x id<B> x coin(1)) ; if<B>
    term = seq(par(coin(0), Id(B), coin(1)), phi_gen(B))
    series = Series()
    series.map(term)
    assert series.node(term).memo is None
    assert_reference(term)


def test_an_unweighted_arm_is_never_asked():
    # The chooser is the constant 1, so the else-arm's row is never read.
    c, d = coin(Fraction(1, 3)), seq(coin(Fraction(1, 5)), Id(B))
    term = seq(par(c, coin(1), d), phi_gen(B))
    series = Series()
    assert series.map(term) == denote(c)
    assert series.node(d).memo == {}


@pytest.mark.parametrize("shift", [-1, 1])
def test_arms_of_other_widths_take_the_generic_path(conds, shift):
    # c is w + shift wires wide and d w - shift: the stage types as
    # w x B x w, but the if does not pick between c and d.
    rng = random.Random(19 + shift)
    for _ in range(20):
        w = rng.randint(1, 3)
        c, d = arms(rng, w + shift, w - shift)
        for m in choosers(rng):
            del conds[:]
            assert_reference(seq(par(c, m, d), phi_gen(bools(w))))
            assert conds == [None]
        # (c x d) runs as written, and phi_p is a conditional over
        # identities.
        del conds[:]
        assert_reference(seq(Par(c, d), phi_p(bools(w), Fraction(1, 3))))
        assert len(conds) == 1 and conds[0] is not None


@pytest.mark.parametrize("shift", [-1, 1])
def test_only_the_conditional_of_other_widths_runs_as_written(conds, shift):
    # One Seq, two conditionals: the first has proper arms; the second
    # has arms of widths w + shift and w - shift, which together read
    # the first's w output wires.  The first is still a node.
    rng = random.Random(37 + shift)
    for _ in range(20):
        w = rng.randint(1, 2)
        e, f = arms(rng, w, w)
        a = rng.randint(0, w)
        c = random_circuit(rng, a, w + shift, max_wires=4)
        d = random_circuit(rng, w - a, w - shift, max_wires=4)
        term = seq(par(e, rng.choice(choosers(rng)), f), phi_gen(bools(w)),
                   par(c, coin(random_bias(rng)), d), phi_gen(bools(w)))
        del conds[:]
        assert_reference(term)
        assert len(conds) == 2 and sum(n is None for n in conds) == 1


def test_a_coin_stage_over_other_widths_takes_the_generic_path(conds):
    # (c x d) ; (id<B> x coin(p) x id<B^3>) ; if<B^2>: the if's blocks
    # straddle c and d, so the Seq is not a choice between them.
    rng = random.Random(23)
    for _ in range(10):
        c, d = arms(rng, 2, 2)
        stage = par(Id(bools(1)), coin(random_bias(rng)), Id(bools(3)))
        del conds[:]
        assert_reference(seq(Par(c, d), stage, phi_gen(bools(2))))
        assert None in conds


def test_a_choice_at_bias_zero_or_one_matches_the_reference():
    rng = random.Random(29)
    c, d = arms(rng, 2, 2)
    for p in (0, 1):
        assert_reference(phi_mix(c, d, bools(2), p))


def test_normal_forms_of_the_axiom_corpus_match_the_reference(conds):
    for _, f, g in axiom_corpus():
        for t in (f, g):
            nf = nf_to_term(normalize(t))
            assert_reference(nf)
            assert denote(nf) == denote(t)
    assert conds and None not in conds


def test_normal_forms_of_random_three_wire_maps_match_the_reference(conds):
    rng = random.Random(31)
    for _ in range(15):
        f = random_map(rng, 3, 3)
        nf = nf_to_term(synthesize_from_map(f))
        assert_reference(nf)
        assert denote(nf) == f
    assert conds and None not in conds
