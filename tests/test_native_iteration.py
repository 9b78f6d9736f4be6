"""Iteration evaluated at a size against its unrolled definition.

``denote(t, k)`` reads the unrolling equation of every ``TauStar`` while
it evaluates; ``denote(instantiate(k, t))`` first builds the unrolled
term.  The two must agree row for row on every demo pair, on the
star-lifted combinators and stream plumbing, and on random loops.
"""

import gc
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitgen import random_circuit
from pbc import (
    B,
    Id,
    PBCError,
    TauStar,
    WireLimitError,
    bools,
    coin,
    denote,
    dirac,
    distance_series,
    hom_distance,
    instantiate,
    par,
    pretty_term,
    seq,
    star,
    star_equiv_bounded,
    tensor,
)
from pbc import combinators as C
from pbc.cli import main as pbc_command
from pbc.semantics import Series
from test_forward import _demo_pairs


def assert_unrolls(term, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires and more warn
        native = denote(term, k)
        unrolled = denote(instantiate(k, term))
    assert (native.in_arity, native.out_arity) == (
        unrolled.in_arity, unrolled.out_arity)
    for x, (got, want) in enumerate(zip(native.rows, unrolled.rows)):
        assert got == want, f"k={k}, row {x}"


def test_demo_pairs_match_their_unrolling_at_every_size():
    # otp, all1, keyguess, vonneumann and both Newton instances, up to
    # the acceptance gate's sizes.
    for name, lhs, rhs, k_max in _demo_pairs():
        for k in range(k_max + 1):
            assert_unrolls(lhs, k)
            assert_unrolls(rhs, k)


def test_more_loops_match_their_unrolling():
    quarter = Fraction(1, 4)
    terms = [C.all_1(quarter), C.all_1_rhs(quarter), C.eq_star()]
    for obj in (star(B), tensor(B, star(B))):
        terms += [C.copy_at(obj), C.discard_at(obj), C.phi_at(obj),
                  C.phi_p_at(obj, Fraction(1, 3))]
    terms += [C.zip_streams(B, bools(2)), C.unzip_streams(bools(2), B),
              C.cycle(B), C.cycle_back(B), C.cycle_back(bools(2))]
    for t in terms:
        for k in range(5):
            assert_unrolls(t, k)
    # A starred stream element: the inner loop runs at the same size.
    for k in range(4):
        assert_unrolls(C.copy_at(star(star(B))), k)


def test_a_loop_with_two_stochastic_streams_each_way():
    # Pop and push that really permute, around a stochastic body.
    body = seq(par(Id(B), coin(Fraction(1, 3)), Id(bools(3))),
               par(Id(bools(2)), C.xor_gate(), Id(B)),
               par(C.lazy_flip(Fraction(1, 5)), Id(bools(3))))
    t = TauStar(B, (B, bools(2)), (bools(2), B), body)
    for k in range(4):
        assert_unrolls(t, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.lists(st.integers(0, 2), max_size=2),
       st.lists(st.integers(0, 2), max_size=2), st.integers(0, 10**6))
def test_random_loops_match_their_unrolling(sw, ins, outs, salt):
    rng = random.Random(salt)
    body = random_circuit(rng, sw + sum(ins), sum(outs) + sw,
                          max_gens=rng.randint(0, 8), max_wires=6, max_den=4)
    t = TauStar(bools(sw), tuple(bools(w) for w in ins),
                tuple(bools(w) for w in outs), body)
    for k in range(4):
        assert_unrolls(t, k)


# ---------------------------------------------------------------------------
# Sizes far beyond what an unrolled term survives.

def test_von_neumann_at_size_1000_under_the_default_recursion_limit():
    lhs, rhs = C.vn_lhs(Fraction(3, 4)), C.vn_rhs()
    d = hom_distance(denote(lhs, 1000), denote(rhs, 1000))
    assert d == Fraction(1, 2**1000)


def test_dist_on_von_neumann_files_at_size_1000(capsys, tmp_path):
    paths = []
    for name, term in (("vn_lhs", C.vn_lhs("3/4")), ("vn_rhs", C.vn_rhs())):
        path = tmp_path / f"{name}.pbc"
        path.write_text(f"main = {pretty_term(term)}\n")
        paths.append(str(path))
    code = pbc_command(["dist", *paths, "--k", "1000"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == f"1/{2**1000}\n"


# ---------------------------------------------------------------------------
# Sizes, limits and memory.

def test_an_iterating_term_needs_a_size():
    with pytest.raises(PBCError, match="size"):
        denote(C.vn_lhs(Fraction(3, 4)))
    with pytest.raises(PBCError, match="parametric type"):
        denote(C.copy_at(star(B)))
    with pytest.raises(ValueError):
        denote(C.copy_at(star(B)), -1)


def test_support_guard_applies_inside_the_loop(monkeypatch):
    monkeypatch.setenv("PBC_MAX_WIRES", "4")
    coins = TauStar((), (), (B,), coin("1/2"))
    forget = seq(coins, C.discard_at(star(B)))
    assert denote(forget, 4).rows == (dirac(0),)
    with pytest.raises(WireLimitError, match="outcomes"):
        denote(forget, 5)


def test_soft_limit_warns_once_at_a_size():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        denote(C.all_1(Fraction(1, 2)), 14)
    assert len(caught) == 1


def test_evaluating_at_a_size_leaves_no_reference_cycles():
    # Memos, kept loop levels and the loops' row tables die with the
    # call instead of waiting for the cyclic collector, for one size and
    # for a series alike.
    coins = TauStar((), (), (B,), coin(Fraction(1, 2)))
    nested = TauStar((), (), (B,), seq(par(coins, coins), C.eq_star()))
    terms = [(C.vn_lhs(Fraction(3, 4)), 50), (C.keyguess_lhs(), 5),
             (C.otp_star_lhs(), 5), (C.phi_at(star(B)), 4),
             (C.cycle_back(B), 4), (C.all_1(Fraction(1, 2)), 10)]
    pairs = [(C.vn_lhs(Fraction(3, 4)), C.vn_rhs(), 50),
             (C.keyguess_lhs(), C.keyguess_rhs(), 5),
             (C.otp_star_lhs(), C.otp_star_rhs(), 5),
             (C.copy_at(star(star(B))), C.copy_at(star(star(B))), 2),
             (nested, coins, 4)]
    gc.collect()
    gc.disable()
    try:
        for t, k in terms:
            denote(t, k)
            assert gc.collect() == 0, pretty_term(t)
        for f, g, k in pairs:
            distance_series(f, g, 0, k)
            assert gc.collect() == 0, pretty_term(f)
            star_equiv_bounded(f, g, k)
            assert gc.collect() == 0, pretty_term(f)
        # One series over the key-guess and one-time pad pairs, whose
        # loops each keep a row table, and a nested loop, rebuilt with
        # its table at each size.
        series = Series()
        for f, g, k in pairs[1:3] + pairs[4:]:
            for size in range(k + 1):
                series.distance(f, g, size)
        del series
        assert gc.collect() == 0
    finally:
        gc.enable()
