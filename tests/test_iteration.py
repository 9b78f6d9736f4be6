import random
import sys
import warnings

import pytest
from pbc import (
    B,
    Counterexample,
    EqualUpTo,
    Id,
    PBCTypeError,
    Swap,
    TauStar,
    TupleSpec,
    UNIT,
    bools,
    coin,
    copy_gen,
    denote,
    discard_gen,
    dot_power,
    identity_map,
    instantiate,
    par,
    phi_gen,
    permute_blocks,
    pop_term,
    power,
    pretty_term,
    push_term,
    seq,
    star,
    star_equiv_bounded,
    tau_k_expand,
    tensor,
    typecheck,
)
from pbc.combinators import (
    all_1,
    all_1_rhs,
    and_gate,
    copy_at,
    cycle,
    cycle_back,
    discard_at,
    phi_at,
    unzip_streams,
    zip_streams,
)

from circuitgen import random_circuit

K = 6


def equal_up_to(lhs, rhs, k_max=K):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return star_equiv_bounded(lhs, rhs, k_max=k_max)


# ---------------------------------------------------------------------------
# Expansion.

def test_expand_at_zero_is_the_state_identity():
    spec = TupleSpec(bools(2), (B,), (B,))
    body = random_circuit(random.Random(1), 3, 3)
    t = tau_k_expand(0, spec, body)
    assert denote(t) == identity_map(2)


def test_zip_at_three_interleaves():
    spec = TupleSpec(UNIT, (B, B), (bools(2),))
    t = tau_k_expand(3, spec, Id(bools(2)))
    f = denote(t)
    # a1 a2 a3 b1 b2 b3 -> a1 b1 a2 b2 a3 b3
    value = 0b101_110
    assert f.rows[value] == {0b11_01_10: 1}


def test_expand_streams_a_two_input_gate():
    spec = TupleSpec(UNIT, (B, B), (B,))
    t = tau_k_expand(2, spec, and_gate())
    f = denote(t)
    for a in range(4):
        for b in range(4):
            assert f.rows[(a << 2) | b] == {a & b: 1}


def test_expand_refuses_a_body_unfit_for_the_spec():
    spec = TupleSpec(UNIT, (B, B), (B,))
    with pytest.raises(PBCTypeError, match=r"^iteration body must be "
                                           r"B\^2 -> B, got B -> I$"):
        tau_k_expand(2, spec, discard_gen(B))


def test_push_pop_are_mutually_inverse():
    for blocks in [(B,), (B, bools(2)), (bools(2), B, B)]:
        for k in range(K + 1):
            width = sum(len(power(b, k + 1)) for b in blocks)
            if width > 12:
                continue
            roundtrip = seq(push_term(blocks, k), pop_term(blocks, k))
            assert denote(roundtrip) == identity_map(width)
            other = seq(pop_term(blocks, k), push_term(blocks, k))
            assert denote(other) == identity_map(width)


def test_dot_power_is_blockwise():
    assert dot_power((B, bools(2)), 3) == tensor(bools(3), bools(6))
    assert dot_power((B,), 0) == UNIT


# ---------------------------------------------------------------------------
# Instantiation.

def test_instantiate_fixes_star_free_terms():
    rng = random.Random(77)
    for _ in range(25):
        t = random_circuit(rng, rng.randint(0, 3), rng.randint(0, 3))
        for k in (0, 1, 5):
            assert instantiate(k, t) == t


def test_instantiate_replaces_stars_in_types():
    t = copy_at(star(B))
    j = typecheck(instantiate(3, t))
    assert j.domain == bools(3)
    assert j.codomain == bools(6)


def test_instantiate_zero_iteration_is_state_identity():
    t = TauStar(B, (B,), (B,), random_circuit(random.Random(3), 2, 2))
    assert denote(instantiate(0, t)) == identity_map(1)


def test_instantiate_unrolls_long_chains_without_recursion():
    plain = seq(*[Id(B)] * 3000)
    starred = seq(*[Id(star(B))] * 3000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        # Texts, not terms: == on a 3000-deep term recurses.
        texts = [pretty_term(instantiate(2, t)) for t in (plain, starred)]
    finally:
        sys.setrecursionlimit(limit)
    assert texts == [" ; ".join(["id<B>"] * 3000),
                     " ; ".join(["id<B^2>"] * 3000)]


def test_nested_stars_share_the_size():
    t = cycle_back(B)
    j = typecheck(instantiate(2, t))
    assert j.domain == bools(3)
    assert j.codomain == bools(3)


# ---------------------------------------------------------------------------
# Bounded equivalence.

def test_equiv_reflective_on_parametric_terms():
    t = all_1("1/2")
    assert isinstance(equal_up_to(t, t, 4), EqualUpTo)


def test_equiv_finds_the_all1_counterexample():
    lhs = all_1("1/2")
    rhs = all_1_rhs("1/2")   # same coin stream, conjunction pinned to 0
    verdict = equal_up_to(lhs, rhs, 3)
    assert isinstance(verdict, Counterexample)
    assert verdict.k <= 3
    assert verdict.lhs_row != verdict.rhs_row


def test_equiv_requires_matching_types():
    with pytest.raises(PBCTypeError):
        star_equiv_bounded(Id(star(B)), Id(B), k_max=2)


def test_truthiness_of_verdicts():
    assert EqualUpTo(3)
    assert not Counterexample(1, 0, 1, {}, {})


# ---------------------------------------------------------------------------
# The iteration laws, checked denotationally at every size up to 6.

def test_law_iterated_identity_is_stream_identity():
    lhs = TauStar(UNIT, (B,), (B,), Id(B))
    assert isinstance(equal_up_to(lhs, Id(star(B))), EqualUpTo)


def test_law_iterated_swap_is_stream_swap():
    lhs = TauStar(UNIT, (B, B), (B, B), Swap(B, B))
    rhs = Swap(star(B), star(B))
    assert isinstance(equal_up_to(lhs, rhs), EqualUpTo)
    wide = TauStar(UNIT, (B, bools(2)), (bools(2), B), Swap(B, bools(2)))
    wide_rhs = Swap(star(B), star(bools(2)))
    assert isinstance(equal_up_to(wide, wide_rhs, 4), EqualUpTo)


def test_law_chained_iterations_fuse():
    rng = random.Random(1009)
    for _ in range(3):
        f = random_circuit(rng, 2, 2)   # S (x) A -> M (x) S
        g = random_circuit(rng, 2, 2)   # T (x) M -> C (x) T
        lhs = seq(par(Id(B), TauStar(B, (B,), (B,), f)),
                  par(TauStar(B, (B,), (B,), g), Id(B)))
        rhs = TauStar(bools(2), (B,), (B,),
                      seq(par(Id(B), f), par(g, Id(B))))
        assert isinstance(equal_up_to(lhs, rhs), EqualUpTo)


def _parallel_fusion_pair(f, g):
    lhs = seq(
        par(Id(B), Swap(B, star(B)), Id(star(B))),
        par(TauStar(B, (B,), (B,), f), TauStar(B, (B,), (B,), g)),
        par(Id(star(B)), Swap(B, star(B)), Id(B)),
    )
    body = seq(par(Id(B), Swap(B, B), Id(B)),
               par(f, g),
               par(Id(B), Swap(B, B), Id(B)))
    return lhs, TauStar(bools(2), (B, B), (B, B), body)


def test_law_parallel_iterations_fuse():
    # Deterministic bodies keep the 14-wire instantiations at k = 6
    # sparse; full coin entropy there would square the support.
    rng = random.Random(1013)
    for _ in range(2):
        f = random_circuit(rng, 2, 2, max_den=1)
        g = random_circuit(rng, 2, 2, max_den=1)
        lhs, rhs = _parallel_fusion_pair(f, g)
        assert isinstance(equal_up_to(lhs, rhs), EqualUpTo)
    for _ in range(2):
        f = random_circuit(rng, 2, 2)
        g = random_circuit(rng, 2, 2)
        lhs, rhs = _parallel_fusion_pair(f, g)
        assert isinstance(equal_up_to(lhs, rhs, 3), EqualUpTo)


def test_zip_then_unzip_is_the_identity():
    t = seq(zip_streams(B, B), unzip_streams(B, B))
    assert isinstance(equal_up_to(t, Id(tensor(star(B), star(B)))),
                      EqualUpTo)


def test_cycle_back_then_cycle_is_the_identity():
    t = seq(cycle_back(B), cycle(B))
    assert isinstance(equal_up_to(t, Id(tensor(B, star(B)))), EqualUpTo)


def test_star_lifted_copy_satisfies_comonoid_laws():
    obj = star(B)
    both = copy_at(obj)
    left_unit = seq(both, par(discard_at(obj), Id(obj)))
    right_unit = seq(both, par(Id(obj), discard_at(obj)))
    ident = Id(obj)
    for t in (left_unit, right_unit):
        assert isinstance(equal_up_to(t, ident, 5), EqualUpTo)
    left_assoc = seq(both, par(both, Id(obj)))
    right_assoc = seq(both, par(Id(obj), both))
    assert isinstance(equal_up_to(left_assoc, right_assoc, 4), EqualUpTo)


def test_star_lifted_circuits_split_off_the_first_atom():
    head, rest = star(B), tensor(B, star(B))
    assert copy_at(tensor(head, rest)) == seq(
        par(copy_at(head), copy_at(rest)),
        permute_blocks([head, head, rest, rest], [0, 2, 1, 3]))
    assert discard_at(tensor(head, rest)) == par(discard_at(head),
                                                 discard_at(rest))
    assert phi_at(tensor(head, rest)) == seq(
        par(Id(tensor(head, rest)), copy_gen(B), Id(tensor(head, rest))),
        permute_blocks([head, rest, B, B, head, rest], [0, 2, 4, 1, 3, 5]),
        par(phi_at(head), phi_at(rest)))
    # A star-free tail is one primitive, and so is a star-free word.
    assert copy_at(rest) == seq(
        par(copy_gen(B), copy_at(star(B))),
        permute_blocks([B, B, star(B), star(B)], [0, 2, 1, 3]))
    assert copy_at(tensor(star(B), B, B)) == seq(
        par(copy_at(star(B)), copy_gen(bools(2))),
        permute_blocks([star(B), star(B), bools(2), bools(2)],
                       [0, 2, 1, 3]))
    assert discard_at(bools(3)) == discard_gen(bools(3))


def test_star_lifted_conditional_matches_single_bit_behaviour():
    obj = star(B)
    t = phi_at(obj)
    for k in (1, 2, 3):
        f = denote(instantiate(k, t))
        g = denote(instantiate(k, phi_gen(bools(k))))
        assert f == g


def test_instantiation_is_functorial_for_composition():
    lhs = seq(zip_streams(B, B), unzip_streams(B, B))
    for k in range(5):
        whole = denote(instantiate(k, lhs))
        from pbc import compose_maps
        parts = compose_maps(
            denote(instantiate(k, zip_streams(B, B))),
            denote(instantiate(k, unzip_streams(B, B))))
        assert whole == parts
