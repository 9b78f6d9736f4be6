"""Eleven gate checks, one pass/fail line each, with wall-clock budgets.

Each check seeds its own generator, so runs are reproducible, and each
prints a single line through the capture so the verdicts stay visible
in plain ``pytest -v`` output.
"""

import random
import time
import warnings
from fractions import Fraction

from pbc import (
    B,
    CONSISTENT,
    EqualUpTo,
    Id,
    StochMap,
    Swap,
    TauStar,
    UNIT,
    axiom_corpus,
    bools,
    check_derivation,
    compose_maps,
    decide_equal,
    denote,
    dirac,
    distance_series,
    hom_distance,
    negligibility_report,
    newton_bound_check,
    nf_to_term,
    normalize,
    par,
    seq,
    star,
    star_equiv_bounded,
    synthesize_from_map,
    synthesize_tight_derivation,
    tensor,
    tensor_maps,
    tv_distance,
)
from pbc.combinators import (
    all_1,
    all_1_rhs,
    coin,
    copy_at,
    cycle,
    cycle_back,
    discard_at,
    keyguess_lhs,
    keyguess_rhs,
    newton_discard_instance,
    newton_flip_instance,
    not_gate,
    otp_lhs,
    otp_rhs,
    otp_star_lhs,
    otp_star_rhs,
    phi_at,
    unzip_streams,
    vn_lhs,
    vn_rhs,
    zip_streams,
)

from circuitgen import random_circuit
from reference import tv_distance_overlap
from test_iteration import _parallel_fusion_pair
from test_proofs import _decorated
from test_semantics import random_dist, random_map


def _gate(capsys, n, label, budget, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"\nacceptance {n:2d} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\nacceptance {n:2d} ({label}): PASS "
              f"({elapsed:.2f}s of {budget}s)")
    assert elapsed < budget, f"{label} took {elapsed:.2f}s"


def test_criterion_01_axiom_corpus(capsys):
    def body():
        corpus = axiom_corpus()
        assert corpus
        for name, lhs, rhs in corpus:
            assert denote(lhs) == denote(rhs), name
            assert decide_equal(lhs, rhs), name
            assert normalize(lhs) == normalize(rhs), name

    _gate(capsys, 1, "axiom corpus", 5, body)


def test_criterion_02_one_time_pad(capsys):
    def body():
        assert denote(otp_lhs()) == denote(otp_rhs())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            series = distance_series(otp_star_lhs(), otp_star_rhs(), 0, 8)
        assert all(d == 0 for _, d in series.pairs)

    _gate(capsys, 2, "one-time pad", 10, body)


# The four unary deterministic maps, keyed by (f(0), f(1)).
_UNARY = {
    (0, 0): seq(discard_at(B), coin(0)),
    (0, 1): Id(B),
    (1, 0): not_gate(),
    (1, 1): seq(discard_at(B), coin(1)),
}


def _mux_realization(table):
    """A two-bit table as a conditional over its one-bit restrictions."""
    f1 = ((table >> 2) & 1, (table >> 3) & 1)
    f0 = (table & 1, (table >> 1) & 1)
    return seq(par(Id(B), copy_at(B)),
               par(Swap(B, B), Id(B)),
               par(_UNARY[f1], Id(B), _UNARY[f0]),
               phi_at(B))


def test_criterion_03_canonical_forms(capsys):
    def body():
        # Every deterministic two-bit-to-one-bit table, realized twice.
        forms = set()
        for table in range(16):
            rows = [dirac((table >> w) & 1) for w in range(4)]
            from_map = synthesize_from_map(StochMap(2, 1, tuple(rows)))
            assert normalize(_mux_realization(table)) == from_map
            assert normalize(nf_to_term(from_map)) == from_map
            forms.add(from_map)
        assert len(forms) == 16

        # Random circuits: the normal form preserves the denotation,
        # reaches a fixpoint, and two same-type circuits agree on
        # normal forms exactly when they agree on semantics.
        rng = random.Random(20260801)
        buckets = {}
        for _ in range(200):
            n_in = rng.randint(0, 3)
            n_out = rng.randint(0, 3)
            c = random_circuit(rng, n_in, n_out)
            nf = normalize(c)
            assert denote(nf_to_term(nf)) == denote(c)
            assert normalize(nf_to_term(nf)) == nf
            prev = buckets.get((n_in, n_out))
            if prev is not None:
                same_map = denote(prev) == denote(c)
                assert (normalize(prev) == nf) == same_map
                assert decide_equal(prev, c) == same_map
            buckets[(n_in, n_out)] = c

    _gate(capsys, 3, "canonical forms", 30, body)


def test_criterion_04_distance_formulas_agree(capsys):
    def body():
        rng = random.Random(20260802)
        for _ in range(1000):
            n = rng.randint(0, 4)
            v = random_dist(rng, n)
            w = random_dist(rng, n)
            assert tv_distance(v, w) == tv_distance_overlap(v, w)

    _gate(capsys, 4, "distance formulas", 5, body)


def test_criterion_05_metric_compatibility(capsys):
    def body():
        rng = random.Random(20260803)
        for _ in range(500):
            m = rng.randint(0, 2)
            n = rng.randint(0, 2)
            r = rng.randint(0, 2)
            f, f2 = random_map(rng, m, n), random_map(rng, m, n)
            g, g2 = random_map(rng, n, r), random_map(rng, n, r)
            budget = hom_distance(f, f2) + hom_distance(g, g2)
            assert hom_distance(compose_maps(f, g),
                                compose_maps(f2, g2)) <= budget
            assert hom_distance(tensor_maps(f, g),
                                tensor_maps(f2, g2)) <= budget
        for _ in range(500):
            n = rng.randint(0, 3)
            u = random_dist(rng, n)
            v = random_dist(rng, n)
            w = random_dist(rng, n)
            assert tv_distance(u, w) <= (tv_distance(u, v)
                                         + tv_distance(v, w))

    _gate(capsys, 5, "metric compatibility", 30, body)


def test_criterion_06_iteration_laws(capsys):
    def body():
        rng = random.Random(20260804)
        f = random_circuit(rng, 2, 2)
        g = random_circuit(rng, 2, 2)
        chained = (
            seq(par(Id(B), TauStar(B, (B,), (B,), f)),
                par(TauStar(B, (B,), (B,), g), Id(B))),
            TauStar(bools(2), (B,), (B,),
                    seq(par(Id(B), f), par(g, Id(B)))),
        )
        # Deterministic bodies keep the 14-wire sizes tractable.
        fused = _parallel_fusion_pair(
            random_circuit(rng, 2, 2, max_den=1),
            random_circuit(rng, 2, 2, max_den=1))
        pairs = [
            (TauStar(UNIT, (B,), (B,), Id(B)), Id(star(B))),
            (TauStar(UNIT, (B, B), (B, B), Swap(B, B)),
             Swap(star(B), star(B))),
            chained,
            fused,
            (seq(zip_streams(B, B), unzip_streams(B, B)),
             Id(tensor(star(B), star(B)))),
            (seq(cycle_back(B), cycle(B)), Id(tensor(B, star(B)))),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for lhs, rhs in pairs:
                assert isinstance(star_equiv_bounded(lhs, rhs, 6),
                                  EqualUpTo)

    _gate(capsys, 6, "iteration laws", 60, body)


def test_criterion_07_conjunction_decay(capsys):
    def body():
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            series = distance_series(all_1(p), all_1_rhs(p), 0, 10)
            for k, d in series.pairs:
                assert d <= p ** k

    _gate(capsys, 7, "conjunction decay", 60, body)


def test_criterion_08_extractor_law(capsys):
    def body():
        for p in (Fraction(3, 5), Fraction(3, 4)):
            series = distance_series(vn_lhs(p), vn_rhs(), 1, 10)
            for k, d in series.pairs:
                assert d == (2 * p - 1) ** k

    _gate(capsys, 8, "extractor law", 60, body)


def test_criterion_09_keyguess_negligibility(capsys):
    def body():
        series = distance_series(keyguess_lhs(), keyguess_rhs(), 1, 8)
        values = [d for _, d in series.pairs]
        assert all(x > y for x, y in zip(values, values[1:]))
        for k, d in series.pairs:
            assert d <= Fraction(1, 2) ** k
        report = negligibility_report(series, 3, Fraction(1, 100))
        assert report.verdict == CONSISTENT
        assert report.threshold_witness is not None
        assert report.threshold_witness[1] == 4

    _gate(capsys, 9, "keyguess negligibility", 120, body)


def test_criterion_10_certificate_synthesis(capsys):
    def body():
        rng = random.Random(20260805)
        for _ in range(100):
            n_in = rng.randint(0, 2)
            n_out = rng.randint(0, 2)
            f = random_circuit(rng, n_in, n_out)
            g = random_circuit(rng, n_in, n_out)
            d = synthesize_tight_derivation(f, g)
            assert check_derivation(d) == d.bound
            assert d.bound == hom_distance(denote(f), denote(g))
        for _ in range(40):
            d = _decorated(rng)
            bound = check_derivation(d)
            a, b = d.endpoints
            assert bound >= hom_distance(denote(a), denote(b))

    _gate(capsys, 10, "certificate synthesis", 60, body)


def test_criterion_11_bound_transport(capsys):
    def body():
        report = newton_bound_check(*newton_discard_instance(), k_max=6)
        assert report.premise_distance == 0
        assert all(c_k == 0 for _, c_k, _ in report.rows)

        report = newton_bound_check(*newton_flip_instance(), k_max=6)
        assert report.premise_distance > 0
        for k, c_k, cap in report.rows:
            assert cap == k * report.premise_distance
            assert c_k <= cap

    _gate(capsys, 11, "bound transport", 30, body)
