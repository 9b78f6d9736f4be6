"""The evaluator's row kernels against plain formulas.

``semantics._tv`` sums, in one pass over the smaller row, the mass one
integer row puts above the other; it must be half their L1 distance.
``semantics._concat`` builds a loop row whose parts cannot collide by
concatenating them; it must build the row ``semantics._mix`` builds
from the same parts: the same denominator, the same entries, in the
same order.
"""

import random
import warnings
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuitgen import random_circuit
from pbc import (
    B,
    TauStar,
    WireLimitError,
    bools,
    coin,
    denote,
    hom_distance,
    instantiate,
    seq,
    star,
    tv_distance,
)
from pbc import combinators as C
from pbc import semantics
from pbc.cli import main
from pbc.semantics import Series
from reference import reference_denote, tv_distance_overlap

GOLDEN = Path(__file__).parent / "data" / "golden"


def _half_l1(v: dict, w: dict) -> Fraction:
    """Half the L1 distance of two distributions of Fraction weights."""
    return sum((abs(v.get(y, 0) - w.get(y, 0)) for y in v.keys() | w.keys()),
               Fraction(0)) / 2


def _weights(row: dict) -> tuple:
    """A row of int numerators as its denominator and its distribution."""
    den = sum(row.values())
    return den, {y: Fraction(n, den) for y, n in row.items()}


# ---------------------------------------------------------------------------
# One-pass row distance.

_rows = st.dictionaries(st.integers(0, 7), st.integers(1, 6),
                        min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(_rows, _rows, st.sampled_from(["overlap", "disjoint", "inside"]),
       st.integers(1, 3), st.integers(1, 3))
@example({3: 1}, {3: 2}, "overlap", 1, 1)  # point rows, unequal dens
@example({3: 1}, {5: 1}, "overlap", 1, 1)  # point rows apart
@example({0: 1, 1: 1}, {0: 1}, "overlap", 1, 1)  # a point inside a row
@example({0: 1, 1: 2}, {0: 2, 1: 4}, "overlap", 1, 1)  # one row, two dens
def test_the_one_pass_distance_is_half_the_l1_distance(a, b, shape, ka, kb):
    if shape == "disjoint":
        b = {y + 8: n for y, n in b.items()}
    elif shape == "inside":  # b's support is a part of a's
        b = dict(zip(a, b.values()))
    # Scaling every numerator scales the denominator with it: the same
    # distribution over another denominator.
    a = {y: n * ka for y, n in a.items()}
    b = {y: n * kb for y, n in b.items()}
    (da, v), (db, w) = _weights(a), _weights(b)
    want = _half_l1(v, w)
    assert semantics._tv(da, a, db, b) == want
    assert semantics._tv(db, b, da, a) == want
    assert tv_distance(v, w) == want == tv_distance_overlap(v, w)
    if shape == "disjoint":
        assert want == 1


@pytest.mark.parametrize("v, w", [
    ({0: Fraction(1, 2)}, {1: Fraction(1, 2)}),
    ({0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}),
    ({}, {}),
])
def test_a_distance_between_non_distributions_is_refused(v, w):
    # The one pass counts on each side summing to 1.
    with pytest.raises(ValueError, match="sum to 1"):
        tv_distance(v, w)


def _random_loop_pair(sw, ins, outs, salt):
    """Two random loops of one type, built as the unrolling tests build
    theirs."""
    rng = random.Random(salt)
    spec = (bools(sw), tuple(bools(w) for w in ins),
            tuple(bools(w) for w in outs))

    def loop():
        body = random_circuit(rng, sw + sum(ins), sum(outs) + sw,
                              max_gens=rng.randint(0, 8), max_wires=6,
                              max_den=4)
        return TauStar(*spec, body)
    return loop(), loop()


_loop_specs = (st.integers(0, 2), st.lists(st.integers(0, 2), max_size=2),
               st.lists(st.integers(0, 2), max_size=2), st.integers(0, 10**6))


@settings(max_examples=20, deadline=None)
@given(*_loop_specs)
def test_random_loop_distances_are_the_reference_maps_distances(
        sw, ins, outs, salt):
    f, g = _random_loop_pair(sw, ins, outs, salt)
    series = Series()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires and more warn
        for k in range(4):
            fk = reference_denote(instantiate(k, f))
            gk = reference_denote(instantiate(k, g))
            want = hom_distance(fk, gk)
            assert want == max(_half_l1(v, w)
                               for v, w in zip(fk.rows, gk.rows))
            assert series.distance(f, g, k) == want, k


# ---------------------------------------------------------------------------
# Concatenated loop rows.

@contextmanager
def checked_concat():
    """Check every row ``_concat`` builds against ``_mix`` on the same
    parts; yields the list of the rows built."""
    built = []
    concat, mix = semantics._concat, semantics._mix

    def checked(den, parts, cap, push=None):
        row = concat(den, parts, cap, push)
        want = mix(den, parts, cap, push)
        # The same entries in the same order; only _mix divides by the
        # gcd of the row.
        scale, rest = divmod(row[0], want[0])
        assert rest == 0
        assert list(row[1].items()) == [(y, m * scale)
                                        for y, m in want[1].items()]
        built.append(row)
        return row

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_concat", checked)
        yield built


@pytest.mark.parametrize("name, k", [("keyguess", 10), ("otp", 10),
                                     ("all1", 14)])
def test_the_demos_concatenate_rows_as_they_would_mix(capsys, name, k):
    golden = (GOLDEN / f"demo_{name}_k{k}.txt").read_text()
    with checked_concat() as built, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires and more warn
        code = main(["demo", name, "--k", str(k)])
    assert (code, capsys.readouterr().out) == (0, golden)
    if name == "otp":
        # The pad's two loops have equal bodies, so the demo reads no
        # level row; build the left side's rows at every size instead.
        lhs, series = C.otp_star_lhs(), Series()
        with checked_concat() as built, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for j in range(1, k + 1):
                series.rows(lhs, j)
    assert built


def test_a_von_neumann_loop_emits_nothing_and_never_concatenates(capsys):
    golden = (GOLDEN / "demo_vonneumann_k80.txt").read_text()
    with checked_concat() as built:
        assert main(["demo", "vonneumann", "--k", "80"]) == 0
    assert capsys.readouterr().out == golden
    assert built == []


@settings(max_examples=40, deadline=None)
@given(*_loop_specs)
def test_random_loops_concatenate_rows_as_they_would_mix(sw, ins, outs, salt):
    f, g = _random_loop_pair(sw, ins, outs, salt)
    with checked_concat(), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires and more warn
        series = Series()
        for k in range(4):
            for t in (f, g):
                assert series.map(t, k) == denote(instantiate(k, t)), k


def test_the_support_guard_applies_to_concatenated_rows(monkeypatch):
    # The coin loop emits one bit a step: its level 5 row has 32
    # outcomes, above 2^4, and is built by concatenation.
    monkeypatch.setenv("PBC_MAX_WIRES", "4")
    raised = []
    concat = semantics._concat

    def watched(*args):
        try:
            return concat(*args)
        except WireLimitError as err:
            raised.append(err)
            raise

    monkeypatch.setattr(semantics, "_concat", watched)
    coins = TauStar((), (), (B,), coin("1/2"))
    forget = seq(coins, C.discard_at(star(B)))
    with pytest.raises(WireLimitError, match="32 outcomes"):
        denote(forget, 5)
    assert len(raised) == 1
