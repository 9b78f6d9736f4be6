"""The forward evaluator against the dense reference semantics.

``pbc.denote`` evaluates one input row at a time with fused wiring and
integer weights; ``reference.reference_denote`` materializes every
subterm as a full map.  They must agree row for row, on random circuits,
on the axiom corpus and on every packaged demo pair at each size up to
the acceptance gate's bounds.
"""

import random
import warnings
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from circuitgen import random_circuit
from pbc import (
    B,
    Id,
    Swap,
    TauStar,
    axiom_corpus,
    bools,
    coin,
    copy_gen,
    denote,
    dirac,
    discard_gen,
    instantiate,
    par,
    seq,
    star,
    tensor,
    tv_distance,
    typecheck,
)
from pbc import combinators as C
from reference import reference_denote, tv_distance_overlap


def assert_same_map(term):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires and more warn
        fast = denote(term)
        slow = reference_denote(term)
    assert (fast.in_arity, fast.out_arity) == (slow.in_arity, slow.out_arity)
    for x, (got, want) in enumerate(zip(fast.rows, slow.rows)):
        assert got == want, f"row {x}"
    return fast


# ---------------------------------------------------------------------------
# Random circuits, up to the shape of the widest benchmark pairs.

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 10), st.integers(3, 12),
       st.integers(0, 40), st.integers(0, 10**6))
def test_random_circuits_match_the_reference(n_in, n_out, max_wires, gens,
                                             salt):
    max_wires = max(max_wires, n_in, n_out)
    rng = random.Random(salt)
    assert_same_map(random_circuit(rng, n_in, n_out, max_gens=gens,
                                   max_wires=max_wires))


def test_axiom_corpus_matches_the_reference():
    corpus = axiom_corpus()
    assert len(corpus) == 34
    for _, lhs, rhs in corpus:
        assert_same_map(lhs)
        assert_same_map(rhs)


# ---------------------------------------------------------------------------
# Shapes where a relabel or a product is easy to get wrong.

def test_par_of_two_random_sides():
    left = seq(par(Id(B), coin("1/3")), C.xor_gate())
    right = C.lazy_flip(Fraction(1, 4))
    both = assert_same_map(par(left, right))
    lrow, rrow = denote(left).rows[1], denote(right).rows[0]
    assert len(lrow) == len(rrow) == 2
    assert both.rows[0b10] == {(a << 1) | b: p * q
                               for a, p in lrow.items()
                               for b, q in rrow.items()}


def test_wiring_that_drops_high_bits():
    # Rotate the low wire to the top, then discard it: a pure relabel
    # that must mask the dropped bit away.
    chain = seq(Swap(bools(2), B), par(discard_gen(B), Id(bools(2))))
    f = assert_same_map(chain)
    assert f.rows == tuple(dirac(x >> 1) for x in range(8))
    fanned = seq(copy_gen(bools(2)), par(discard_gen(bools(2)), Id(bools(2))))
    assert assert_same_map(fanned).rows == tuple(dirac(x) for x in range(4))


def test_dropping_bits_merges_outcomes():
    # Four outcomes collapse to two once the high coin is discarded.
    t = seq(par(coin("1/3"), coin("1/5"), Id(B)),
            par(discard_gen(B), Id(bools(2))))
    f = assert_same_map(t)
    assert f.rows[1] == {0b11: Fraction(1, 5), 0b01: Fraction(4, 5)}
    gone = seq(par(coin("1/3"), coin("1/5")), discard_gen(bools(2)))
    assert assert_same_map(gone).rows == (dirac(0),)


# ---------------------------------------------------------------------------
# Every demo pair at every size the acceptance gate uses.

def _newton_pairs(f, g, h, spec):
    """The premise and iterated pairs that ``newton_bound_check``
    compares for one interchange instance."""
    ins, outs = tensor(*spec.inputs), tensor(*spec.outputs)
    in_streams = tensor(*(star(o) for o in spec.inputs))
    out_streams = tensor(*(star(o) for o in spec.outputs))
    mid = typecheck(f).codomain
    premise = (seq(par(f, Id(ins)), g), seq(h, par(Id(outs), f)))
    iterated = (
        seq(par(f, Id(in_streams)),
            TauStar(mid, spec.inputs, spec.outputs, g)),
        seq(TauStar(spec.state, spec.inputs, spec.outputs, h),
            par(Id(out_streams), f)),
    )
    return premise, iterated


def _demo_pairs():
    half = Fraction(1, 2)
    yield "otp", C.otp_star_lhs(), C.otp_star_rhs(), 8
    yield "all1", C.all_1(half), C.all_1_rhs(half), 10
    yield "keyguess", C.keyguess_lhs(), C.keyguess_rhs(), 8
    yield "vonneumann", C.vn_lhs(Fraction(3, 4)), C.vn_rhs(), 10
    for name, instance in (("discard", C.newton_discard_instance()),
                           ("flip", C.newton_flip_instance())):
        premise, iterated = _newton_pairs(*instance)
        yield f"newton-{name}-premise", *premise, 0
        yield f"newton-{name}", *iterated, 6


def test_demo_pairs_match_the_reference_at_every_size():
    for name, lhs, rhs, k_max in _demo_pairs():
        for k in range(k_max + 1):
            f = assert_same_map(instantiate(k, lhs))
            g = assert_same_map(instantiate(k, rhs))
            for v, w in zip(f.rows, g.rows):
                assert tv_distance(v, w) == tv_distance_overlap(v, w), (
                    name, k)
