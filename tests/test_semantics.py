import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitgen import random_circuit
from pbc import (
    B,
    Gen,
    Id,
    StochMap,
    Swap,
    UNIT,
    WireLimitError,
    bernoulli,
    bools,
    coin,
    compose_maps,
    copy_gen,
    denote,
    dirac,
    discard_gen,
    distribution,
    hom_distance,
    identity_map,
    map_to_tsv,
    par,
    parse_circuit,
    phi_gen,
    seq,
    tensor_maps,
    tv_distance,
    typecheck,
)
from pbc.combinators import and_gate, not_gate, xor_gate
from pbc.semantics import Series
from pbc.terms import same_type
from reference import apply_map, reference_denote, tv_distance_overlap


def random_dist(rng: random.Random, n_bits: int, max_weight: int = 12):
    size = 2 ** n_bits
    support = rng.sample(range(size), rng.randint(1, size))
    weights = [rng.randint(1, max_weight) for _ in support]
    total = sum(weights)
    return distribution(
        (v, Fraction(w, total)) for v, w in zip(support, weights))


def random_map(rng: random.Random, n_in: int, n_out: int) -> StochMap:
    rows = tuple(random_dist(rng, n_out) for _ in range(2 ** n_in))
    return StochMap(n_in, n_out, rows)


# ---------------------------------------------------------------------------
# Distances.

def test_tv_formulas_agree_on_random_pairs():
    rng = random.Random(5150)
    for _ in range(1000):
        n = rng.randint(1, 4)
        v, w = random_dist(rng, n), random_dist(rng, n)
        assert tv_distance(v, w) == tv_distance_overlap(v, w)


def test_tv_known_values():
    assert tv_distance(dirac(0), dirac(1)) == 1
    assert tv_distance(bernoulli("1/2"), bernoulli("1/2")) == 0
    assert tv_distance(bernoulli("1/2"), bernoulli("3/4")) == Fraction(1, 4)
    assert tv_distance(dirac(0), bernoulli("1/3")) == Fraction(1, 3)


def test_tv_is_a_metric_on_samples():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 3)
        u, v, w = (random_dist(rng, n) for _ in range(3))
        assert 0 <= tv_distance(u, v) <= 1
        assert tv_distance(u, v) == tv_distance(v, u)
        assert tv_distance(u, w) <= tv_distance(u, v) + tv_distance(v, w)
        assert tv_distance(u, u) == 0


def test_hom_distance_is_worst_case_input():
    f = denote(coin("1/2"))
    g = denote(coin("3/4"))
    assert hom_distance(f, g) == Fraction(1, 4)
    ident = identity_map(1)
    flipped = denote(not_gate())
    assert hom_distance(ident, flipped) == 1


def test_composition_and_tensor_are_non_expansive():
    rng = random.Random(424242)
    for _ in range(500):
        n_in, n_mid, n_out = (rng.randint(1, 2) for _ in range(3))
        f = random_map(rng, n_in, n_mid)
        g = random_map(rng, n_in, n_mid)
        h = random_map(rng, n_mid, n_out)
        k = random_map(rng, n_mid, n_out)
        base = hom_distance(f, g) + hom_distance(h, k)
        assert hom_distance(compose_maps(f, h), compose_maps(g, k)) <= base
        assert hom_distance(tensor_maps(f, h), tensor_maps(g, k)) <= base


# ---------------------------------------------------------------------------
# Denotations of the primitives.

def test_coin_copy_discard_tables():
    assert apply_map(denote(coin("1/3")), 0) == bernoulli("1/3")
    assert denote(copy_gen(B)).rows[1] == dirac(0b11)
    assert denote(discard_gen(bools(2))).out_arity == 0
    assert denote(Id(bools(2))).rows[2] == dirac(2)


def test_conditional_picks_first_block_on_one():
    f = denote(phi_gen(B))
    # input wires, most significant first: first block, condition, second
    for a in (0, 1):
        for c in (0, 1):
            for b in (0, 1):
                picked = a if c else b
                assert f.rows[(a << 2) | (c << 1) | b] == dirac(picked)


def test_swap_reorders_words():
    f = denote(Swap(bools(2), B))
    assert f.rows[0b101] == dirac(0b110)


def test_leaves_of_different_kinds_never_share_a_node():
    # Every kind of leaf at one word: each has its own shape, so its own
    # node and map, whatever was compiled before it in the series.
    w = bools(2)
    leaves = [Id(w), copy_gen(w), discard_gen(w), phi_gen(w), Swap(B, B),
              Swap(UNIT, w), coin(Fraction(1, 2)), coin(0)]
    series = Series()
    for t in leaves + leaves[::-1]:
        assert series.map(t) == reference_denote(t), t
    nodes = [series.node(t) for t in leaves]
    assert len(set(map(id, nodes))) == len(leaves)


def test_a_leaf_built_anew_compiles_to_the_shared_leafs_node():
    series = Series()
    for shared, fresh in [
            (coin(Fraction(1, 3)), Gen("coin", UNIT, Fraction(1, 3))),
            (copy_gen(B), Gen("copy", B)),
            (discard_gen(bools(2)), Gen("discard", bools(2))),
            (phi_gen(B), Gen("phi", B)),
            (parse_circuit("main = id<B^2>\n"), Id(bools(2))),
            (parse_circuit("main = swap<B, B^2>\n"), Swap(B, bools(2)))]:
        assert fresh is not shared and fresh == shared
        series._at(same_type(shared, fresh), None)
        assert series.node(fresh) is series.node(shared)


def test_compiling_coins_hashes_no_fraction(monkeypatch):
    term = parse_circuit(
        "let mix = (id<B> x coin(1/3) x coin(2/7)) ; if<B>\n"
        "main = coin(1/5) ; mix ; (id<B> x coin(1/3)) ; (mix x mix)\n")
    calls = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__",
                        lambda p: calls.append(p) or fraction_hash(p))
    series = Series()
    series._at(typecheck(term), None)
    series.node(term)
    assert calls == []


def test_gate_tables():
    land = denote(and_gate())
    assert [land.rows[i] for i in range(4)] == [
        dirac(0), dirac(0), dirac(0), dirac(1)]
    xor = denote(xor_gate())
    assert [xor.rows[i] for i in range(4)] == [
        dirac(0), dirac(1), dirac(1), dirac(0)]


@settings(max_examples=50)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 100))
def test_random_circuits_denote_row_stochastic(n_in, n_out, salt):
    rng = random.Random(salt)
    f = denote(random_circuit(rng, n_in, n_out))
    for row in f.rows:
        assert sum(row.values()) == 1
        assert all(p > 0 for p in row.values())


# ---------------------------------------------------------------------------
# The wire guard.

def test_hard_limit_raises():
    with pytest.raises(WireLimitError):
        denote(Id(bools(21)))


def test_soft_limit_warns_but_evaluates():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f = denote(Id(bools(14)))
    assert f.in_arity == 14
    assert any("wire" in str(w.message) for w in caught)


def test_env_override_lifts_the_limit(monkeypatch):
    monkeypatch.setenv("PBC_MAX_WIRES", "22")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert denote(Id(bools(21))).in_arity == 21
    monkeypatch.setenv("PBC_MAX_WIRES", "nope")
    with pytest.raises(Exception, match="PBC_MAX_WIRES"):
        denote(Id(bools(21)))


def test_support_guard_bounds_intermediate_distributions(monkeypatch):
    monkeypatch.setenv("PBC_MAX_WIRES", "4")
    four = seq(par(*[coin("1/2")] * 4), discard_gen(bools(4)))
    assert denote(four).rows == (dirac(0),)
    five = seq(par(*[coin("1/2")] * 5), discard_gen(bools(5)))
    with pytest.raises(WireLimitError, match="outcomes"):
        denote(five)


def test_wide_wiring_inside_a_narrow_map_evaluates():
    # A copy fans 12 wires out to 24: only the map's own ends count.
    fanned = seq(copy_gen(bools(12)), discard_gen(bools(24)))
    assert denote(fanned).rows == tuple(dirac(0) for _ in range(1 << 12))
    halved = seq(copy_gen(bools(12)),
                 par(discard_gen(bools(12)), Id(bools(12))))
    assert denote(halved) == identity_map(12)


def test_soft_limit_warns_once_per_denote():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        denote(seq(Id(bools(14)), Swap(bools(7), bools(7)), Id(bools(14))))
    assert len(caught) == 1


# ---------------------------------------------------------------------------
# Serialization.

def test_map_to_tsv_golden():
    text = map_to_tsv(denote(par(coin("1/2"), Id(B))))
    assert text == (
        "in\tout\tprob\n"
        "0\t00\t1/2\n"
        "0\t10\t1/2\n"
        "1\t01\t1/2\n"
        "1\t11\t1/2\n"
    )


def test_map_to_tsv_empty_words_print_as_dash():
    text = map_to_tsv(denote(coin("1/4")))
    assert text.splitlines()[1] == "-\t0\t3/4"


def test_seq_par_fold_conventions():
    three = seq(coin("1/2"), copy_gen(B), par(Id(B), copy_gen(B)))
    assert denote(three).out_arity == 3
    assert denote(par()).in_arity == 0
