"""The evaluator's row kernels against plain formulas.

``semantics._tv`` sums, in one pass over the smaller row, the mass one
integer row puts above the other; it must be half their L1 distance.
``semantics._concat`` builds a loop row whose parts cannot collide by
concatenating them; it must build the row ``semantics._mix`` builds
from the same parts: the same denominator, the same entries, in the
same order.  A distance scan walks a row kept as its parts
(``semantics._walk``) where it meets a row it has met before; it must
give the distance of the reference maps.
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
    Id,
    TauStar,
    Term,
    UNIT,
    WireLimitError,
    bools,
    coin,
    copy_gen,
    denote,
    discard_gen,
    hom_distance,
    instantiate,
    par,
    pretty_term,
    seq,
    star,
    tv_distance,
    typecheck,
    width,
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


# ---------------------------------------------------------------------------
# Rows kept as their parts, and distances that walk them.

def _count_walks(monkeypatch, floor=None) -> list:
    """The list of the row distances taken by walking a row's parts; with
    ``floor`` given, every concatenation of that many entries or more is
    kept as its parts."""
    walks, walk = [], semantics._walk
    monkeypatch.setattr(semantics, "_walk", lambda *args: (
        walks.append(args[1]) or walk(*args)))
    if floor is not None:
        monkeypatch.setattr(semantics, "_CAT_FLOOR", floor)
    return walks


def _reference_distance(f, g, k):
    return hom_distance(reference_denote(instantiate(k, f)),
                        reference_denote(instantiate(k, g)))


def _scanned_distance(f, g, k):
    """The distance over the rows as plain dicts: no part is walked."""
    _, f_rows = Series().rows(f, k)
    _, g_rows = Series().rows(g, k)
    return max(semantics._tv(*a, *b) for a, b in zip(f_rows, g_rows))


@pytest.mark.parametrize("floor", [None, 2])
def test_key_guess_distances_walk_the_shared_rows(monkeypatch, floor):
    walks = _count_walks(monkeypatch, floor)
    f, g = C.keyguess_lhs(), C.keyguess_rhs()
    series = Series()
    for k in range(11):
        d = series.distance(f, g, k)
        assert d == Fraction(1, 2**k) == _scanned_distance(f, g, k), k
        if k <= 7:
            assert d == _reference_distance(f, g, k), k
    # At size k every input but the first walks its flag-set row, which
    # is kept as its parts from 64 entries on, or from 2 with the floor
    # lowered.
    assert len(walks) == sum((1 << k) - 1 for k in range(
        6 if floor is None else 1, 11))


def test_a_walk_sums_each_part_at_its_place_against_its_own_row(
        monkeypatch):
    # One part row, [1, 2] over 3, stands in three rows kept as their
    # parts: A1 and A2 hold it at offset 2, times 1 and 3, and A3 at
    # offset 0.  Walked against B1 and then A1 against B2, in one scan,
    # each row's distance is the one its plain entries give.
    walks = _count_walks(monkeypatch, 2)
    part, point = (3, {0: 1, 1: 2}), (1, {0: 1})
    recipes = {"A1": [(1, 2, part), (3, 0, point)],
               "A2": [(3, 2, part), (1, 0, point)],
               "A3": [(1, 0, part), (3, 2, point)]}

    def row(name):
        return semantics._concat(4, recipes[name], 1 << 20)

    def want(a, b):
        return _half_l1(_weights(a)[1], _weights(b)[1])

    b1, b2 = {2: 4, 3: 4, 0: 4}, {0: 6, 1: 6}
    memo = {}, {}
    for b in (b1, b2):  # the first meetings, which scan
        assert semantics._tv(*point, 12, b, memo) == want(point[1], b)
    for name, b in (("A1", b1), ("A2", b1), ("A3", b1), ("A1", b2)):
        a = row(name)[1].plain()  # another row of the same parts
        assert semantics._tv(*row(name), 12, b, memo) == want(a, b), name
    assert len(walks) == 4


def _emitting_loop(sw, extra, ins, rng) -> TauStar:
    """A loop over a random body whose result, ``sw + extra`` wires each
    flipped by a coin of its own, it emits whole and keeps the first
    ``sw`` of as its state: the body's outcomes have distinct stream
    heads, so its level rows concatenate, and the flips make the rows of
    distinct inputs overlap."""
    word = bools(sw + extra)
    core = random_circuit(rng, sw + sum(ins), sw + extra, max_gens=6,
                          max_wires=6, max_den=4)
    flips = par(*(seq(par(Id(B), coin(Fraction(rng.randint(1, 3), 4))),
                       C.xor_gate())
                  for _ in range(sw + extra)))
    body = seq(core, flips, copy_gen(word),
               par(Id(word), Id(bools(sw)), discard_gen(bools(extra))))
    return TauStar(bools(sw), tuple(bools(w) for w in ins), (word,), body)


def _discarding_side(f, rng):
    """The loop f with its state, and its input streams discarded and
    drawn at random once: one row object for all inputs of one state."""
    def bits(w):
        return par(*(coin(rng.randint(0, 1)) for _ in range(w)))
    return seq(par(Id(f.state), *(
        seq(C.discard_at(star(w)), TauStar(UNIT, (), (w,), bits(width(w))))
        for w in f.inputs)), f)


def test_walked_distances_of_random_loops_are_the_reference_distances():
    walked = []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1), st.integers(1, 2),
           st.lists(st.integers(1, 2), min_size=1, max_size=2),
           st.integers(0, 10**6))
    def check(sw, extra, ins, salt):
        rng = random.Random(salt)
        f = _emitting_loop(sw, extra, ins, rng)
        g = _discarding_side(f, rng)
        with pytest.MonkeyPatch.context() as mp:
            walks = _count_walks(mp, 2)
            series = Series()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # 14 wires and more warn
                for k in range(4 if sum(ins) == 1 else 3):
                    assert series.distance(f, g, k) == _reference_distance(
                        f, g, k), k
        walked.append(bool(walks))

    check()
    # Most of the loops walk some row: those whose body reads its input.
    assert sum(walked) >= len(walked) // 3


def _undecided() -> TauStar:
    """A loop that emits a fair bit a step while its flag is set, and
    clears the flag with the first 0: its level k row from the set flag
    has support k + 1, each row the next one down and a point."""
    body = seq(par(Id(B), coin("1/2")), C.and_gate(), copy_gen(B))
    return TauStar(B, (), (B,), body)


def _zeros(out: Term) -> Term:
    """All zeros from a flag, ``out`` emitting each step's zeros: one row
    object for every input."""
    return seq(C.discard_at(B), par(TauStar(UNIT, (), (
        typecheck(out).codomain,), out), coin(0)))


def test_a_loop_whose_body_loops_walks_rows_of_concatenated_body_rows(
        monkeypatch):
    # Each outer step runs the undecided loop for k steps and emits its
    # k bits as one block, so the outer body's row is a concatenation.
    walks = _count_walks(monkeypatch, 2)
    inner = _undecided()
    outer = TauStar(B, (), (star(B),), inner)
    g = _zeros(TauStar(UNIT, (), (B,), coin(0)))
    series = Series()
    for k in range(4):
        d = series.distance(outer, g, k)
        assert d == _reference_distance(outer, g, k), k
        assert d == (Fraction(1, 2) if k else 1), k
    assert walks
    # At size 3 the outer body's row from the set flag has 4 entries,
    # kept as its parts.
    _, body_row = semantics._row(series.node(inner), 1)
    assert body_row.__class__ is semantics._Cat


def test_a_thousand_levels_deep_row_evaluates_and_walks(monkeypatch, capsys,
                                                       tmp_path):
    # The row from the set flag at size 1000 nests its rows 1000 deep;
    # flattening and walking it run on explicit stacks.
    monkeypatch.setenv("PBC_MAX_WIRES", "1001")
    walks = _count_walks(monkeypatch)
    paths = []
    for name, term in (("f", _undecided()), ("g", _zeros(coin(0)))):
        paths.append(tmp_path / f"{name}.pbc")
        paths[-1].write_text(f"main = {pretty_term(term)}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 1001 wires
        assert main(["dist", *map(str, paths), "--k", "1000"]) == 0
        assert capsys.readouterr().out == "1/2\n"
        assert len(walks) == 1
        assert main(["eval", str(paths[0]), "--k", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # A header, the point from the cleared flag, and 1001 outputs from
    # the set flag, of weights 1/2, 1/4, ..., 1/2^1000 and 1/2^1000.
    assert len(lines) == 1 + 1 + 1001
    weights = sorted(Fraction(line.split("\t")[2]) for line in lines[2:])
    assert weights[0] == weights[1] == Fraction(1, 2**1000)
    assert weights[2:] == [Fraction(1, 2**i) for i in range(999, 0, -1)]
