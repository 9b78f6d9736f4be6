"""The evaluator's row kernels against plain formulas.

``_rows._tv`` sums, in one pass over the smaller row, the mass one
integer row puts above the other; it must be half their L1 distance.
``_rows._concat`` builds a loop row whose parts cannot collide by
concatenating them; it must build the row ``_rows._mix`` builds
from the same parts: the same denominator, the same entries, in the
same order.  A tensor with a point on one side places a row kept as its
parts anew; it must read out as the reference map.  A distance between
two rows kept as their parts pairs them part against part
(``_rows._excess``); it must give the distance of the flattened
rows and of the reference maps.  A coin beside wiring is a product
node, which multiplies a whole distribution in one pass; it must give
the rows ``_mix`` gives over the same parts, entry order included, and
the reference map.  A tensor of any number of factors is one node
(``Series._par``); its rows must be the reference map's.
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
    Swap,
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
    phi_gen,
    pretty_term,
    seq,
    star,
    tv_distance,
    typecheck,
    width,
)
from pbc import combinators as C
from pbc import _rows, semantics
from pbc.cli import main
from pbc.semantics import Series, _Node, map_to_tsv
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

_int_rows = st.dictionaries(st.integers(0, 7), st.integers(1, 6),
                            min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(_int_rows, _int_rows,
       st.sampled_from(["overlap", "disjoint", "inside"]),
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
    assert _rows._tv(da, a, db, b) == want
    assert _rows._tv(db, b, da, a) == want
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

    def checked(den, parts, cap, split):
        row = concat(den, parts, cap, split)
        want = mix(den, parts, cap)
        # The same entries in the same order; only _mix divides by the
        # gcd of the row.
        scale, rest = divmod(row[0], want[0])
        assert rest == 0
        assert list(_rows._plain(row[1]).items()) == [
            (y, m * scale) for y, m in want[1].items()]
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


def test_a_mixture_of_exactly_the_limit_is_not_refused(capsys, monkeypatch,
                                                       tmp_path):
    # A choice between two coins side by side, four outcomes, and the
    # constant 00, one of them: the mixture has exactly 2^2 outcomes,
    # which the limit admits.
    monkeypatch.setenv("PBC_MAX_WIRES", "2")
    path = tmp_path / "f.pbc"
    path.write_text("main = (coin(1/2) x coin(1/3)) x coin(1/5) x "
                    "(coin(0) x coin(0)) ; if<B^2>\n")
    assert main(["eval", str(path)]) == 0
    assert capsys.readouterr().out == (
        "in\tout\tprob\n-\t00\t13/15\n-\t01\t1/30\n-\t10\t1/15\n"
        "-\t11\t1/30\n")


# ---------------------------------------------------------------------------
# Rows kept as their parts, placed anew beside a point.

def _points_beside_coins():
    """Terms whose rows, from 64 entries on, are a coin loop's rows kept
    as their parts and placed beside a point: on the right, as the
    all-ones limit and key-guess's right side place them, and on the
    left."""
    coins = TauStar(UNIT, (), (B,), coin("1/2"))
    return [C.all_1_rhs(Fraction(1, 2)), par(coin(1), coins),
            par(coins, coin(1)), par(coin(1), coins, coin(0))]


@pytest.mark.parametrize("term", _points_beside_coins(), ids=pretty_term)
def test_ropes_placed_beside_a_point_read_out_as_the_reference_map(
        capsys, tmp_path, term):
    path = tmp_path / "t.pbc"
    path.write_text(f"main = {pretty_term(term)}\n")
    series = Series()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires and more warn
        for k in range(11):
            want = reference_denote(instantiate(k, term))
            _, rows = series.rows(term, k)
            assert [_rows._fractions(den, row, {}) for den, row in rows
                    ] == list(want.rows), k
            if k >= 6:  # 64 entries: the root row is a placed rope
                _, row = semantics._row(series.node(term), 0)
                assert row.__class__ is _rows._Cat
            assert main(["eval", str(path), "--k", str(k)]) == 0
            assert capsys.readouterr().out == map_to_tsv(want), k


# ---------------------------------------------------------------------------
# Distances that pair two rows kept as their parts.

def _count_walks(monkeypatch, floor=None) -> list:
    """The list of the scan memos of the row distances taken by pairing
    two rows' parts, one entry per such distance; with ``floor`` given,
    every concatenation of that many entries or more is kept as its
    parts."""
    walks, walk = [], _rows._excess
    monkeypatch.setattr(_rows, "_excess", lambda *args: (
        walks.append(args[-1]) or walk(*args)))
    if floor is not None:
        monkeypatch.setattr(_rows, "_CAT_FLOOR", floor)
    return walks


def _pair_sums(memo: dict) -> int:
    """How many pairs of placed rows a scan memo has summed: its keys of
    two row ids, two multipliers, two shifts and two offsets."""
    return sum(1 for key in memo if len(key) == 8)


def _reference_distance(f, g, k):
    return hom_distance(reference_denote(instantiate(k, f)),
                        reference_denote(instantiate(k, g)))


def _scanned_distance(f, g, k):
    """The distance over the rows as plain dicts: no part is walked."""
    _, f_rows = Series().rows(f, k)
    _, g_rows = Series().rows(g, k)
    return max(_rows._tv(*a, *b) for a, b in zip(f_rows, g_rows))


@pytest.mark.parametrize("floor", [None, 2])
def test_key_guess_distances_walk_the_shared_rows(monkeypatch, floor):
    walks = _count_walks(monkeypatch, floor)
    f, g = C.keyguess_lhs(), C.keyguess_rhs()
    series = Series()
    for k in range(11):
        before = len(walks)
        d = series.distance(f, g, k)
        assert d == Fraction(1, 2**k) == _scanned_distance(f, g, k), k
        if k <= 7:
            assert d == _reference_distance(f, g, k), k
        if floor and k:
            # Summed once each and kept, beneath the 2^k inputs' rows
            # paired with the right side's one row: the 2^j flag-set
            # rows of each level j < k, and the one flag-cleared row of
            # each level, which every input's row holds.
            assert _pair_sums(walks[-1]) == 2 ** k - 1 + k, k
            assert all(m is walks[-1] for m in walks[before:]), k
    # At size k every input's flag-set row is kept as its parts from 64
    # entries on, or from 2 with the floor lowered, and so is the right
    # side's one row, the coin loop's placed beside a 0: every input
    # pairs the two, the first one too.
    assert len(walks) == sum(1 << k for k in range(
        6 if floor is None else 1, 11))


@pytest.mark.parametrize("floor", [None, 2])
def test_one_part_at_two_offsets_is_compared_where_each_stands(monkeypatch,
                                                               floor):
    # A coin loop's level row holds the level below twice, one part per
    # emitted bit.  Placed beside coin(0) on one side and beside coin(1)
    # or a coin of either value on the other, each pair of parts the
    # walk meets is one row at one shift and two offsets: rows that share
    # no outcome, or only some.
    walks = _count_walks(monkeypatch, floor)
    coins = TauStar(UNIT, (), (B,), coin("1/2"))
    zero = par(coins, coin(0))
    for other, d in ((par(coins, coin(1)), 1),
                     (par(coins, coin("1/3")), Fraction(1, 3))):
        for k in (range(6, 8) if floor is None else range(1, 6)):
            assert Series().distance(zero, other, k) == d, k
            assert Series().distance(other, zero, k) == d, k
            assert _reference_distance(zero, other, k) == d, k
    assert walks


def test_a_walk_sums_each_part_at_its_place_against_its_own_row(
        monkeypatch):
    # One part row, [1, 2] over 3, stands in every rope below, at two
    # heads and at several multipliers, and in two of them placed anew
    # beside a point.  Paired in one scan memo, in both orders, each
    # distance is the one the plain entries give.
    walks = _count_walks(monkeypatch, 2)
    part, point = (3, {0: 1, 1: 2}), (1, {0: 1})
    recipes = {"A1": [(1, 2, part), (3, 0, point)],
               "A2": [(3, 2, part), (1, 0, point)],
               "A3": [(1, 0, part), (3, 2, point)],
               "B1": [(2, 2, part), (2, 0, part)],
               "B2": [(1, 4, part), (3, 0, point)]}  # a head A lacks
    rows = {name: _rows._concat(4, parts, 1 << 20, 1)
            for name, parts in recipes.items()}
    for name in ("A1", "B1"):  # placed beside the point 1, on the right
        beside = Series()._par([_Node(0, 3, memo={0: rows[name]}),
                                _Node(0, 1, det=lambda x: 1)])
        rows[name + "p"] = semantics._row(beside, 0)
    assert rows["A1p"][1].__class__ is _rows._Cat
    # A1p's parts at their new place, 2y + 1 under heads of split 2, as
    # rows of their own: paired with A1p, each part meets a row it is
    # scanned against at two places.
    rows["C"] = _rows._concat(2, [(1, 4, (3, {1: 1, 3: 2})),
                                  (1, 0, (1, {1: 1}))], 1 << 20, 2)

    def want(a, b):
        return _half_l1(_weights(_rows._plain(a[1]))[1],
                        _weights(_rows._plain(b[1]))[1])

    memo, pairs = {}, 0
    for a, b in [("A1", "B1"), ("A2", "B1"), ("A3", "B1"), ("A1", "B2"),
                 ("A2", "B2"), ("A1p", "B1p"), ("A1", "A2"),
                 ("A1p", "C")]:
        for x, y in ((a, b), (b, a)):
            assert _rows._tv(*rows[x], *rows[y], memo) == want(
                rows[x], rows[y]), (x, y)
            pairs += 1
    assert len(walks) == pairs


def _random_ropes(data) -> list:
    """Random rows as ``(den, row, width)``: a few dicts, then ropes
    built by ``_concat`` from rows drawn among those before, so parts
    are shared, at random splits, heads, multipliers and denominators,
    each placed anew beside a point on the left, the right or both sides,
    or not.  Last come four ropes over two drawn rows, so that every
    pool holds pairs of each kind: the first rope's split and heads,
    those heads at the other rows, its split with a head it lacks, and
    another split."""
    draw = data.draw
    pool = []

    def rope(picks, heads, split):
        ns = draw(st.lists(st.integers(1, 3), min_size=len(picks),
                           max_size=len(picks)))
        return _rows._concat(
            sum(ns), [(n, h << split, pool[i][:2])
                      for n, h, i in zip(ns, heads, picks)], 1 << 30, split)

    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.integers(0, 2))
        row = draw(st.dictionaries(st.integers(0, (1 << w) - 1),
                                   st.integers(1, 4), min_size=1))
        pool.append((sum(row.values()), row, w))
    for _ in range(draw(st.integers(1, 6))):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                              max_size=3))
        split = max(pool[i][2] for i in picks) + draw(st.integers(0, 1))
        heads = draw(st.lists(st.integers(0, 3), min_size=len(picks),
                              max_size=len(picks), unique=True))
        den, row = rope(picks, heads, split)
        w = split + 2
        side, v = draw(st.sampled_from(["", "left", "right", "both"])), draw(
            st.integers(0, 1))
        if side:  # beside the one-bit point v, or between two
            point = _Node(0, 1, det=lambda x: v)
            rope_node = _Node(0, w, memo={0: (den, row)})
            nodes = {"left": [point, rope_node], "right": [rope_node, point],
                     "both": [point, rope_node, point]}[side]
            den, row = semantics._row(Series()._par(nodes), 0)
            w += len(nodes) - 1
        pool.append((den, row, w))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2,
                          max_size=2))
    split = max(pool[i][2] for i in picks)
    h0, h1, h2, _ = draw(st.permutations(range(4)))
    for heads, at in (((h0, h1), split), ((h1, h0), split),
                      ((h0, h2), split), ((h0, h1), split + 1)):
        pool.append((*rope(picks, heads, at), at + 2))
    return pool


def test_paired_walks_of_random_ropes_are_the_flattened_distances():
    kinds = []

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def check(data):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_rows, "_CAT_FLOOR", 2)
            pool = _random_ropes(data)
        memo = {}  # one scan's, over every pair
        for da, a, _ in pool:
            for db, b, _ in pool:
                plain_a, plain_b = _rows._plain(a), _rows._plain(b)
                want = _half_l1(_weights(plain_a)[1], _weights(plain_b)[1])
                assert _rows._tv(da, a, db, b, memo) == want
                assert _rows._tv(da, plain_a, db, plain_b) == want
                if a.__class__ is b.__class__ is _rows._Cat:
                    kinds.append(
                        "fallback" if a.split != b.split else "matched"
                        if {hi >> a.split for _, _, hi, _, _ in a.parts}
                        == {hi >> b.split for _, _, hi, _, _ in b.parts}
                        else "unmatched")

    check()
    # Pairs of ropes with one split and one set of heads, with heads the
    # other lacks, and with two splits, which are flattened.
    assert min(map(kinds.count, ("matched", "unmatched", "fallback"))) >= 20


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


def _undecided(p="1/2") -> TauStar:
    """A loop that emits a bit of bias p a step while its flag is set,
    and clears the flag with the first 0: its level k row from the set
    flag has support k + 1, each row the next one down and a point."""
    body = seq(par(Id(B), coin(p)), C.and_gate(), copy_gen(B))
    return TauStar(B, (), (B,), body)


def _beside_zero(out: Term) -> Term:
    """A flag discarded, and the streams of a loop over ``out`` beside a
    0 for the state: one row object for every input."""
    return seq(C.discard_at(B), par(TauStar(UNIT, (), (
        typecheck(out).codomain,), out), coin(0)))


def test_a_loop_whose_body_loops_walks_rows_of_concatenated_body_rows(
        monkeypatch):
    # Each outer step runs the undecided loop for k steps and emits its
    # k bits as one block, so the outer body's row is a concatenation,
    # and so are the outer level rows.  Against all zeros, a point, they
    # are flattened and scanned; against k fair bits a step, whose rows
    # are ropes of one split with theirs, they are paired.
    walks = _count_walks(monkeypatch, 2)
    inner = _undecided()
    outer = TauStar(B, (), (star(B),), inner)
    zeros = _beside_zero(TauStar(UNIT, (), (B,), coin(0)))
    coins = _beside_zero(TauStar(UNIT, (), (B,), coin("1/2")))
    series = Series()
    for k in range(4):
        d = series.distance(outer, zeros, k)
        assert d == _reference_distance(outer, zeros, k), k
        assert d == (Fraction(1, 2) if k else 1), k
        assert series.distance(outer, coins, k) == _reference_distance(
            outer, coins, k), k
    assert walks
    # At size 3 the outer body's row from the set flag has 4 entries,
    # kept as its parts.
    _, body_row = semantics._row(series.node(inner), 1)
    assert body_row.__class__ is _rows._Cat


def test_a_thousand_levels_deep_row_evaluates_and_walks(monkeypatch, capsys,
                                                       tmp_path):
    # The rows from the set flag at size 1000 nest their rows 1000 deep;
    # flattening them and pairing the rows of two biases run on explicit
    # stacks.  The bias 1/3 puts 2/3 on the first 0 where 1/2 puts 1/2,
    # and less on every other output.
    monkeypatch.setenv("PBC_MAX_WIRES", "1001")
    walks = _count_walks(monkeypatch)
    paths = []
    for name, term in (("f", _undecided()), ("g", _undecided("1/3"))):
        paths.append(tmp_path / f"{name}.pbc")
        paths[-1].write_text(f"main = {pretty_term(term)}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 1001 wires
        assert main(["dist", *map(str, paths), "--k", "1000"]) == 0
        assert capsys.readouterr().out == "1/6\n"
        assert len(walks) == 1
        assert main(["eval", str(paths[0]), "--k", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # A header, the point from the cleared flag, and 1001 outputs from
    # the set flag, of weights 1/2, 1/4, ..., 1/2^1000 and 1/2^1000.
    assert len(lines) == 1 + 1 + 1001
    weights = sorted(Fraction(line.split("\t")[2]) for line in lines[2:])
    assert weights[0] == weights[1] == Fraction(1, 2**1000)
    assert weights[2:] == [Fraction(1, 2**i) for i in range(999, 0, -1)]


# ---------------------------------------------------------------------------
# Product stages: a coin beside wiring multiplies a whole distribution.

def _rows_and_mixes(term, k=None, placed=True) -> tuple:
    """A term's rows as ``(den, [(output, numerator), ...])``, entries in
    their order, and how many rows ``_mix`` built for them.  Unplaced,
    no product node is built, so every coin beside wiring is evaluated
    entry by entry through ``_par``'s kernel and mixed by ``_mix``."""
    mixes = []
    with pytest.MonkeyPatch.context() as mp:
        mix = semantics._mix
        mp.setattr(semantics, "_mix", lambda *args: (
            mixes.append(args) or mix(*args)))
        if not placed:
            mp.setattr(semantics, "_fixed", lambda node: None)
        _, rows = Series().rows(term, k)
    return [(den, list(row.items())) for den, row in rows], len(mixes)


def _products(term, k=None) -> int:
    """How many product stages a term's rows took, after checking that
    they are the rows ``_mix`` gives, entry order included, and, read
    out, the reference map.  Each product stage stands for one
    ``_mix``, and nothing else differs."""
    rows, mixes = _rows_and_mixes(term, k)
    want, unplaced_mixes = _rows_and_mixes(term, k, placed=False)
    assert rows == want
    reference = (reference_denote(term) if k is None
                 else reference_denote(instantiate(k, term)))
    assert [_rows._fractions(den, dict(row), {}) for den, row in rows
            ] == list(reference.rows)
    return unplaced_mixes - mixes


def test_a_coin_at_every_position_multiplies_as_mix_mixes():
    # Every width up to 12 wires, the coin at every position, after a
    # distribution of 2^w outcomes of unequal weights.
    taken = 0
    for w in range(12):
        before = par(*(coin(Fraction(1, j + 2)) for j in range(w)))
        for i in range(w + 1):
            stage = par(Id(bools(i)), coin("2/7"), Id(bools(w - i)))
            taken += _products(seq(before, stage) if w else stage)
    # From two coins on, the distribution has many outcomes.
    assert taken == sum(w + 1 for w in range(1, 12))


def test_random_circuits_multiply_as_mix_mixes():
    rng, taken = random.Random(27), 0
    for _ in range(120):
        term = random_circuit(rng, rng.randint(0, 3), rng.randint(0, 10),
                              max_gens=30, max_wires=12, max_den=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 14 wires and more warn
            taken += _products(term)
    assert taken >= 200


@pytest.mark.parametrize("term", [
    seq(coin("1/3"), par(coin("1/2"), discard_gen(B))),
    seq(par(coin("1/3"), coin("1/5")), par(Id(B), coin("1/2"),
                                           discard_gen(B))),
    seq(par(coin("1/3"), coin("1/5")), par(discard_gen(B), coin("1/2"),
                                           Id(B))),
], ids=pretty_term)
def test_a_coin_beside_a_discard_mixes_entry_by_entry(term):
    # The selection drops an input bit, so two outcomes may meet: the
    # stage keeps the per-entry path, and _mix sums them.
    assert _products(term) == 0


def test_a_coin_stage_in_a_loop_body_multiplies_as_mix_mixes():
    # The body draws a coin beside its state, then another beside both:
    # the second stage multiplies a distribution of two outcomes.
    body = seq(par(Id(B), coin("1/3")), par(Id(bools(2)), coin("1/5")),
               par(C.xor_gate(), Id(B)))
    loop = TauStar(B, (), (B,), body)
    assert sum(_products(loop, k) for k in range(6)) > 0
    # Random loops, whose bodies are random circuits.
    for salt in range(8):
        for f in _random_loop_pair(1, [1], [1], salt):
            for k in range(4):
                _products(f, k)


def _stages_after_coins():
    """A coin loop, whose rows from 64 entries on are kept as their
    parts, then a stage that reads every entry of its row: a coin beside
    wiring (a product stage), a loop beside wiring (a mixture), and
    wiring that keeps or merges outcomes."""
    coins = TauStar(UNIT, (), (B,), coin("1/2"))
    return [seq(coins, after) for after in (
        par(Id(star(B)), coin("1/3")), par(coin("1/3"), Id(star(B))),
        par(Id(star(B)), coins), par(coin(1), Id(star(B))),
        C.discard_at(star(B)))]


@pytest.mark.parametrize("term", _stages_after_coins(), ids=pretty_term)
def test_a_stage_after_a_rope_reads_the_reference_map(
        capsys, monkeypatch, tmp_path, term):
    path = tmp_path / "t.pbc"
    path.write_text(f"main = {pretty_term(term)}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires and more warn
        for floor, ks in ((None, range(6, 8)), (2, range(1, 6))):
            if floor is not None:
                monkeypatch.setattr(_rows, "_CAT_FLOOR", floor)
            for k in ks:
                want = reference_denote(instantiate(k, term))
                _, rows = Series().rows(term, k)
                assert [_rows._fractions(den, row, {}) for den, row in rows
                        ] == list(want.rows), (floor, k)
                assert main(["eval", str(path), "--k", str(k)]) == 0
                assert capsys.readouterr().out == map_to_tsv(want), (floor, k)


# ---------------------------------------------------------------------------
# One node per tensor.

@pytest.mark.parametrize("gen", [
    coin("1/3"), copy_gen(B), discard_gen(B), phi_gen(B), Swap(B, B),
], ids=pretty_term)
def test_a_stage_among_wiring_builds_one_node_besides_its_factors(
        monkeypatch, gen):
    built = []
    init = _Node.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Node, "__init__", counted)
    series = Series()
    stage = par(Id(bools(2)), gen, Id(bools(3)))
    assert series.node(stage) is built[-1]
    # id<B^2>, the generator, id<B^3>, and the tensor; beside a coin,
    # also the wiring whose function the tensor's kernel builds on first
    # use, a node of its own so that the kernel holds no cycle.
    assert len(built) == (5 if gen == coin("1/3") else 4)
    monkeypatch.undo()
    _, rows = series.rows(stage)
    assert [_rows._fractions(den, row, {}) for den, row in rows
            ] == list(reference_denote(stage).rows)


def test_a_tensor_lists_its_outcomes_with_its_left_factor_slowest():
    # In the order the reference's tensor lists them, over the product
    # of the denominators; the tensor's rows of other widths are placed
    # around a point.
    term = par(coin("1/3"), Id(B), coin("1/5"), discard_gen(B))
    rows = Series().rows(term)[1]
    assert [(den, list(row)) for den, row in rows] == [
        (15, list(want)) for want in reference_denote(term).rows]
    assert list(rows[0][1]) == [0b101, 0b100, 0b001, 0b000]


_biases = st.sampled_from(["0", "1", "1/2", "1/3", "3/4"])


def _small_circuit(salt: int) -> Term:
    rng = random.Random(salt)
    return random_circuit(rng, rng.randint(0, 2), rng.randint(0, 2),
                          max_gens=4, max_wires=4, max_den=4)


_wiring = st.one_of(
    st.builds(lambda w: Id(bools(w)), st.integers(0, 2)),
    st.sampled_from([Swap(B, B), copy_gen(B), discard_gen(B)]))
_factors = st.one_of(
    _wiring,
    st.sampled_from([C.not_gate(), phi_gen(B)]),
    st.builds(coin, _biases),
    st.builds(_small_circuit, st.integers(0, 10**6)),
    st.builds(lambda p: TauStar(UNIT, (), (B,), coin(p)), _biases),
)
# Any factors, or wiring around one biased coin: a product node.
_tensors = st.one_of(
    st.lists(_factors, min_size=2, max_size=6),
    st.builds(lambda ws, p, i: ws[:i] + [coin(p)] + ws[i:],
              st.lists(_wiring, min_size=1, max_size=5),
              st.sampled_from(["1/2", "1/3", "3/4"]), st.integers(0, 5)))


def _kind(node: _Node) -> str:
    return ("wiring" if node.sel is not None else "product" if node.fixed
            else "function" if node.memo is None else "kernel")


def test_tensors_of_many_factors_read_out_as_the_reference_map(capsys,
                                                               tmp_path):
    path, kinds = tmp_path / "t.pbc", []

    @settings(max_examples=150, deadline=None)
    @given(_tensors, st.integers(0, 3))
    def check(drawn, k):
        # Factors are taken while the tensor stays within 7 wires in
        # and 9 out; the first two always fit.
        fs, n_in, n_out = [], 0, 0
        for f in drawn:
            t = typecheck(f)
            n_in += width(t.domain, k)
            n_out += width(t.codomain, k)
            if len(fs) >= 2 and (n_in > 7 or n_out > 9):
                break
            fs.append(f)
        term = par(*fs)
        want = reference_denote(instantiate(k, term))
        series = Series()
        _, rows = series.rows(term, k)
        assert [_rows._fractions(den, row, {}) for den, row in rows
                ] == list(want.rows)
        kinds.append(_kind(series.node(term)))
        path.write_text(f"main = {pretty_term(term)}\n")
        assert main(["eval", str(path), "--k", str(k)]) == 0
        assert capsys.readouterr().out == map_to_tsv(want)

    check()
    # Every kind of tensor node was built.
    assert min(map(kinds.count, ("wiring", "product", "function",
                                 "kernel"))) >= 3
