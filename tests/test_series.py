"""One compilation per series against one ``denote`` per size.

``semantics.Series`` compiles two terms once for a run of sizes, keeps
the size-free nodes and the levels of loops over size-free bodies, and
compares the roots one integer row at a time.  Its distances and
equality verdicts must be those of ``hom_distance`` and row equality on
fresh ``denote`` maps at every size, and those of a fresh series when
one series answers questions about terms of many types.  Loops of one
signature whose bodies are different terms of one map are one loop,
bare or inside larger terms, and every other term is found by its
shape at the size, so equal terms around one loop are one node; their
maps must still be the reference unrolling's.
"""

import random
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitgen import random_circuit
from pbc import (
    B,
    Id,
    PBCError,
    PBCTypeError,
    Swap,
    TauStar,
    UNIT,
    axiom_corpus,
    bools,
    coin,
    copy_gen,
    denote,
    distance_series,
    hom_distance,
    identity_map,
    instantiate,
    newton_bound_check,
    nf_to_term,
    normalize,
    par,
    phi_gen,
    pretty_term,
    seq,
    star,
    star_equiv_bounded,
    synthesize_tight_derivation,
    tensor,
    tensor_maps,
    typecheck,
)
from pbc import combinators as C
from pbc import semantics
from pbc.cli import main
from pbc.parser import parse_circuit
from pbc.semantics import Series
from pbc.terms import phi_case, same_type
from reference import reference_denote
from test_forward import _demo_pairs

DATA = Path(__file__).parent / "data"


def assert_series_agrees(f, g, sizes, reference=denote):
    """The series evaluator, moved through ``sizes`` in order, against
    per-size maps, ``denote``'s or another reference's: the distance,
    and the first differing row if any.  The series it asked."""
    series = Series()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires and more warn
        for k in sizes:
            fk, gk = reference(f, k), reference(g, k)
            assert series.distance(f, g, k) == hom_distance(fk, gk), k
            first = next(((x, a, b) for x, (a, b)
                          in enumerate(zip(fk.rows, gk.rows)) if a != b),
                         None)
            got = series.difference(f, g, k)
            if first is None:
                assert got is None, k
            else:
                x, a, b = first
                assert got == (x, fk.in_arity, a, b), k
            # The same question asked of one term twice: no difference.
            assert series.difference(f, f, k) is None
    return series


def test_every_demo_pair_at_every_gated_size():
    # otp, all1, keyguess, vonneumann, and both Newton instances with
    # their premises, up to the acceptance gate's sizes.
    for name, lhs, rhs, k_max in _demo_pairs():
        assert_series_agrees(lhs, rhs, range(k_max + 1))


def test_nested_and_plumbing_loops():
    quarter = Fraction(1, 4)
    copy2 = C.copy_at(star(star(B)))
    twice = seq(copy2, par(Id(star(star(B))), Id(star(star(B)))))
    assert_series_agrees(copy2, twice, range(4))
    assert_series_agrees(C.phi_at(star(B)), C.phi_at(star(B)), range(5))
    assert_series_agrees(C.cycle_back(B), Id(tensor(B, star(B))), range(5))
    assert_series_agrees(C.all_1(quarter), C.all_1_rhs(quarter), range(8))


def test_sizes_out_of_order_and_repeated():
    # Kept levels do not depend on the size, so any order agrees.
    f, g = C.keyguess_lhs(), C.keyguess_rhs()
    assert_series_agrees(f, g, [3, 1, 4, 4, 0, 2, 5])


def _unrolled(t, k):
    """The map of a term at size k, by the dense reference semantics of
    its unrolling."""
    return reference_denote(instantiate(k, t))


def _hiding(p):
    """A loop over the star-free type I -> B whose body holds two coin
    streams of bias p fed into eq_star: its value depends on the size."""
    coins = TauStar((), (), (B,), coin(p))
    return TauStar((), (), (B,), seq(par(coins, coins), C.eq_star()))


def _carrying(p, sw):
    """A loop that carries sw state wires through and emits coin(p) each
    step, drawn behind a coin stream it discards: the same map at every
    size, but over a body that loops."""
    coins = TauStar((), (), (B,), coin(Fraction(1, 2)))
    drawn = seq(coins, C.discard_at(star(B)), coin(p))
    return TauStar(bools(sw), (), (B,), par(drawn, Id(bools(sw))))


def test_a_loop_hiding_a_sized_loop_is_rebuilt_at_each_size():
    # At bias 1/2 the outer body's value is (1/2)^k at size k.  Sharing
    # it across sizes by its type would keep the size-1 value.
    hidden = _hiding(Fraction(1, 2))
    fair = TauStar((), (), (B,), coin(Fraction(1, 2)))
    assert_series_agrees(hidden, fair, range(5))
    # k bits, each 1 with probability (1/2)^k, against k zeros.
    zeros = TauStar((), (), (B,), coin(0))
    for k, d in distance_series(hidden, zeros, 0, 4).pairs:
        assert d == 1 - (1 - Fraction(1, 2**k)) ** k
    # Such a loop is rebuilt at each size with a row table of its own.
    # One series asked about such loops through sizes 0..5, size 3
    # again, then about more pairs answers as fresh series and the
    # reference do: no row is found by a key that names a row of a
    # dropped size.  Loops that carry a state have a row per state at
    # level 0, so a key naming a dead one could be met again.
    series = Series()
    questions = [(hidden, fair),
                 (_hiding(Fraction(1, 3)), _hiding(Fraction(2, 3))),
                 (_carrying(Fraction(1, 2), 1), _carrying(Fraction(1, 3), 1)),
                 (_carrying(Fraction(1, 2), 2), _carrying(Fraction(1, 3), 2))]
    for f, g in questions:
        for k in [0, 1, 2, 3, 4, 5, 3]:
            for t in (f, g):
                assert series.map(t, k) == Series().map(t, k), k
                assert series.map(t, k) == _unrolled(t, k), k
            assert series.distance(f, g, k) == Series().distance(f, g, k)


def _reparsed(term):
    """A structurally equal copy of a term that shares no object with it."""
    return parse_circuit(f"main = {pretty_term(term)}\n")


def _twin_loops():
    """Pairs of loops of one signature whose bodies are one map: the
    one-time pad's two loops, two loops over wiring, copy and copy then
    swap, and random bodies against their normal form, against
    themselves followed by an identity and against a re-parsed copy,
    over one and over two output streams, where the loop pushes its
    outputs."""
    yield "otp", C.otp_star_lhs(), C.otp_star_rhs()
    # Wiring bodies, so wiring loops, that push two output streams.
    yield ("wiring", TauStar(UNIT, (B,), (B, B), copy_gen(B)),
           TauStar(UNIT, (B,), (B, B), seq(copy_gen(B), Swap(B, B))))
    rng = random.Random(11)
    for sw, outs in ((1, (B,)), (0, (B, B)), (1, (B, B))):
        body = random_circuit(rng, sw + 1, len(outs) + sw, max_gens=6,
                              max_wires=5, max_den=4)

        def loop(t):
            return TauStar(bools(sw), (B,), outs, t)
        name = f"state{sw}-outputs{len(outs)}"
        yield name + "-nf", loop(body), loop(nf_to_term(normalize(body)))
        yield name + "-seq-id", loop(body), loop(
            seq(body, Id(bools(len(outs) + sw))))
        yield name + "-reparsed", loop(body), _reparsed(loop(body))


@pytest.mark.parametrize("f, g", [p[1:] for p in _twin_loops()],
                         ids=[p[0] for p in _twin_loops()])
def test_loops_of_one_map_share_rows_and_keep_their_maps(f, g):
    # One series holds both loops, so they are one loop and build their
    # rows once; each map is still its own reference unrolling.
    series = Series()
    for k in range(7):
        for t in (f, g):
            assert series.map(t, k) == _unrolled(t, k), k
    assert star_equiv_bounded(f, g, 6)


def test_the_one_time_pads_two_loops_build_each_row_once():
    # The two bodies give one row in a different order of outputs, so
    # the second loop, where it is built, is the first: each level row
    # of one is the other's, one object, though each loop's rows are
    # read on their own, with no comparison asked.  (At size 0 a loop
    # is the identity wiring, which makes its row as it is read.)
    f, g = C.otp_star_lhs(), C.otp_star_rhs()
    series = Series()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires at k = 7
        for k in range(1, 9):
            _, f_rows = series.rows(f, k)
            _, g_rows = series.rows(g, k)
            assert series.node(f) is series.node(g)
            for (da, a), (db, b) in zip(f_rows, g_rows, strict=True):
                assert da == db and a is b, k


def _kept_loops(series) -> set:
    """The distinct ``_Loop``s a series keeps, over size-free bodies."""
    return {loop for by_body in series.loops.values()
            for loop in by_body.values()}


def _count_row_builds(monkeypatch) -> list:
    """The list of calls that build a row: to ``_mix``, and to
    ``_concat`` for a row whose parts cannot collide."""
    calls = []
    for name in ("_mix", "_concat"):
        build = getattr(semantics, name)
        monkeypatch.setattr(semantics, name, lambda *args, build=build: (
            calls.append(args) or build(*args)))
    return calls


def test_a_key_guess_series_builds_each_distinct_row_once(monkeypatch):
    # Level n of the guessing loop has 2^n rows with the flag set and one
    # shared by every input with it cleared; the top level 8 is asked
    # only with the flag set.  The loop that draws the fresh keys has one
    # row per level; the loop that discards the guesses is wiring, one
    # selection per level, and mixes none.  So sizes 0..8 mix
    # (2 + ... + 2^7) + 7 + 2^8 + 8 = 525 rows, where building every
    # input's row mixes 1,282.
    calls = _count_row_builds(monkeypatch)
    series = distance_series(C.keyguess_lhs(), C.keyguess_rhs(), 0, 8)
    assert series.pairs[-1] == (8, Fraction(1, 2**8))
    assert len(calls) == 525


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.lists(st.integers(0, 2), max_size=2),
       st.lists(st.integers(0, 2), max_size=2), st.integers(0, 10**6))
def test_random_loops(sw, ins, outs, salt):
    rng = random.Random(salt)
    spec = (bools(sw), tuple(bools(w) for w in ins),
            tuple(bools(w) for w in outs))

    def loop():
        body = random_circuit(rng, sw + sum(ins), sum(outs) + sw,
                              max_gens=rng.randint(0, 8), max_wires=6,
                              max_den=4)
        return TauStar(*spec, body)
    f, g = loop(), loop()
    assert_series_agrees(f, g, range(4))
    assert_series_agrees(f, f, range(4))


def test_a_von_neumann_series_runs_each_level_once(monkeypatch):
    # Size k + 1 adds one level on top of the kept ones, so each level's
    # kernel runs at most once per state: four two-bit states over 400
    # levels, where evaluating every size afresh runs them 400^2 / 2
    # times.
    calls = []

    class CountingLoop(semantics._Loop):
        __slots__ = ()

        def _add_level(self):
            super()._add_level()
            node = self.levels[-1]
            kernel = node.kernel

            def counted(v):
                calls.append(v)
                return kernel(v)
            node.kernel = counted

    monkeypatch.setattr(semantics, "_Loop", CountingLoop)
    series = distance_series(C.vn_lhs(Fraction(3, 4)), C.vn_rhs(), 0, 400)
    assert series.pairs[-1] == (400, Fraction(1, 2**400))
    assert 400 <= len(calls) <= 4 * 400


def test_a_lone_mixture_part_is_its_own_row(monkeypatch, capsys):
    # A von Neumann loop row at a decided state mixes one continuation
    # row with weight 1: 158 of the 238 loop rows of the k = 80 demo.
    # Each is that continuation row itself, of the value a new mixture
    # would have.  Loop kernels are the callers that pass a push.
    loop_rows, lone = [], []
    mix = semantics._mix

    def counted(*args):
        row = mix(*args)
        if len(args) == 4:
            loop_rows.append(row)
            den, parts, cap, push = args
            if any(row is part[2] for part in parts):
                # An identity push takes the path that builds a new row.
                assert mix(den, parts, cap, push or (lambda y: y)) == row
                lone.append(row)
        return row

    monkeypatch.setattr(semantics, "_mix", counted)
    assert main(["demo", "vonneumann", "--k", "80"]) == 0
    assert capsys.readouterr().out == (
        DATA / "golden" / "demo_vonneumann_k80.txt").read_text()
    assert (len(lone), len(loop_rows)) == (158, 238)


def test_the_soft_limit_warns_once_per_question():
    half = Fraction(1, 2)
    questions = [
        (lambda: distance_series(C.all_1(half), C.all_1_rhs(half), 0, 16),
         1),
        # The pad's two loops are one node: no row is read at any size.
        (lambda: star_equiv_bounded(C.otp_star_lhs(), C.otp_star_rhs(), 8),
         0),
    ]
    for ask, count in questions:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ask()
        assert len(caught) == count
        # all1 has k + 1 output wires: it reaches 14 at k = 13, the first
        # size the warning names.
        assert [str(w.message) for w in caught] == [
            "the map uses 14 wires; expect slow exact arithmetic"] * count


@pytest.mark.parametrize("ask", [
    lambda t: denote(t, 14),
    lambda t: Series().map(t, 14),
    lambda t: Series().distance(t, seq(t, t), 14),
    lambda t: distance_series(t, seq(t, t), 14, 14),
    lambda t: star_equiv_bounded(t, seq(t, t), 14),
    lambda t: tensor_maps(identity_map(7), identity_map(7)),
], ids=["denote", "map", "distance", "distance_series",
        "star_equiv_bounded", "tensor_maps"])
def test_the_soft_limit_warning_names_the_caller(ask):
    # A filter by module or a traceback location then points at the
    # caller's code, not at pbc's.  A term compared with itself reads no
    # row, so does not warn: each comparison is with a respelling.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ask(Id(star(B)))
    assert [w.filename for w in caught] == [__file__]


def test_a_distance_stops_at_a_row_of_distance_one(monkeypatch):
    # Row 0 of id against not is at distance 1, the largest there is,
    # so row 1 is never read.
    rows = []
    read = semantics._row

    def counted(node, x):
        rows.append(x)
        return read(node, x)

    monkeypatch.setattr(semantics, "_row", counted)
    assert Series().distance(Id(B), C.not_gate()) == 1
    assert rows == [0, 0]


def test_rows_over_two_denominators_are_one_distribution():
    # Two fair coins xor-ed give one fair coin, its rows over 4 and 2.
    xored = seq(par(coin(Fraction(1, 2)), coin(Fraction(1, 2))), C.xor_gate())
    assert Series().difference(xored, coin(Fraction(1, 2))) is None


def test_one_series_answers_questions_of_many_types_as_fresh_ones_do():
    # The 34 axiom pairs and 40 seeded 3-wire pairs, of many types, all
    # asked of one series: every answer is a fresh series' answer.
    rng = random.Random(7)
    pairs = [(f, g) for _, f, g in axiom_corpus()]
    pairs += [(random_circuit(rng, 3, 3), random_circuit(rng, 3, 3))
              for _ in range(40)]
    shared = Series()
    for f, g in pairs:
        assert shared.map(f) == Series().map(f)
        assert shared.map(g) == Series().map(g)
        assert shared.distance(f, g) == Series().distance(f, g)
        assert shared.difference(f, g) == Series().difference(f, g)
    # Through sizes 0..4 of a parametric pair, then a star-free question
    # without a size, then back to a smaller size: the nodes of the
    # sizes left behind are dropped, not reused.
    lhs, rhs = C.otp_star_lhs(), C.otp_star_rhs()
    noisy = TauStar((), (B,), (bools(2),), par(Id(B), coin(Fraction(1, 3))))
    for k in range(5):
        assert shared.map(lhs, k) == Series().map(lhs, k)
        assert shared.difference(lhs, rhs, k) is None
        assert (shared.distance(lhs, noisy, k)
                == Series().distance(lhs, noisy, k))
        assert (shared.difference(rhs, noisy, k)
                == Series().difference(rhs, noisy, k))
    f, g = C.otp_lhs(), C.otp_rhs()
    assert shared.map(f) == Series().map(f)
    assert shared.difference(f, g) is None
    assert shared.map(noisy, 2) == Series().map(noisy, 2)


_ILL = seq(coin(Fraction(1, 2)), Id(bools(2)))
_ILL_TEXT = ("sequential mismatch: expected B on the left of the second "
             "factor, got B^2")
_F, _G, _H, _SPEC = C.newton_discard_instance()


@pytest.mark.parametrize("ask, text", [
    (lambda: star_equiv_bounded(C.otp_star_lhs(), Id(B), 3),
     "cannot compare terms of types B^* -> (B^2)^* and B -> B"),
    (lambda: star_equiv_bounded(C.otp_star_lhs(), Id(B), -1),
     "cannot compare terms of types B^* -> (B^2)^* and B -> B"),
    (lambda: star_equiv_bounded(C.otp_star_lhs(), _ILL, 3), _ILL_TEXT),
    (lambda: distance_series(coin(Fraction(1, 2)), Id(B), 0, 2),
     "cannot compare terms of types I -> B and B -> B"),
    (lambda: distance_series(coin(Fraction(1, 2)), Id(B), 3, 2),
     "cannot compare terms of types I -> B and B -> B"),
    (lambda: distance_series(_ILL, coin(Fraction(1, 2)), 0, 2), _ILL_TEXT),
    (lambda: newton_bound_check(Id(bools(2)), _G, _H, _SPEC, 3),
     "the state map f must start at the state B of h, got f : B^2 -> B^2"),
    (lambda: newton_bound_check(_ILL, _G, _H, _SPEC, 3), _ILL_TEXT),
    (lambda: newton_bound_check(_F, Id(bools(2)), _H, _SPEC, -1),
     "iteration body must be B -> B, got B^2 -> B^2"),
    (lambda: newton_bound_check(_F, _G, _ILL, _SPEC, 3), _ILL_TEXT),
    (lambda: synthesize_tight_derivation(coin(Fraction(1, 2)), Id(B)),
     "cannot compare terms of types I -> B and B -> B"),
    (lambda: synthesize_tight_derivation(coin(Fraction(1, 2)), _ILL),
     _ILL_TEXT),
    (lambda: synthesize_tight_derivation(C.otp_star_lhs(), C.otp_star_rhs()),
     "tight derivations cover star-free terms without loops, got a "
     "parametric pair of type B^* -> (B^2)^*"),
])
def test_questions_about_mismatched_or_ill_typed_terms_keep_their_errors(
        ask, text):
    # Each question judges its terms before it asks for any size.
    with pytest.raises(PBCTypeError) as caught:
        ask()
    assert str(caught.value) == text


@pytest.mark.parametrize("ask", [
    lambda: star_equiv_bounded(C.otp_star_lhs(), C.otp_star_rhs(), k_max=-1),
    lambda: newton_bound_check(_F, _G, _H, _SPEC, k_max=-1),
])
def test_a_negative_size_bound_is_refused(ask):
    # Comparing no size at all would read as a verdict.
    with pytest.raises(PBCError, match=r"^negative size bound -1$"):
        ask()


# ---------------------------------------------------------------------------
# One node per shape: a size-free term is compiled once per series
# however many objects spell it.

def test_a_term_and_its_reparsed_copy_compile_to_one_root_node(monkeypatch):
    rng = random.Random(23)
    for _ in range(10):
        f = _reparsed(random_circuit(rng, 2, 4, max_gens=20, max_wires=8))
        g = _reparsed(f)
        series = Series()
        fn, gn = _roots(series, f, g, None)
        assert f is not g and fn is gn
    # One node answers without reading a row.
    monkeypatch.setattr(semantics, "_row", None)
    assert series.distance(f, g) == 0
    assert series.difference(f, g) is None


def test_a_file_and_its_copy_are_equal_with_no_function_built(
        monkeypatch, capsys, tmp_path):
    # A deterministic stage builds its function when its first row is
    # read, so eq on a file and its copy, one node and no row read,
    # turns no bit selection into a function; eval reads every row.
    calls, select = [], semantics._select
    monkeypatch.setattr(semantics, "_select", lambda *args: (
        calls.append(args) or select(*args)))
    rng = random.Random(41)
    paths = [str(tmp_path / f"{side}.pbc") for side in ("file", "copy")]
    for _ in range(6):
        term = random_circuit(rng, 2, 10, max_gens=40, max_wires=12,
                              max_den=8)
        for path in paths:
            Path(path).write_text(f"main = {pretty_term(term)}\n")
        assert main(["eq", *paths]) == 0
        assert capsys.readouterr().out == "EQUAL\n"
    assert calls == []
    assert main(["eval", paths[0]]) == 0
    assert calls


def test_each_function_is_bound_once_however_many_rows_are_read(
        monkeypatch):
    # A loop over a deterministic body that is not wiring (a kernel per
    # level), a ; that opens with a deterministic stage (lazy_flip), a
    # conditional with deterministic arms, a deterministic ; step and
    # tensors with deterministic factors: each kernel binds its parts'
    # functions on its first run, so reading 8 times the rows asks for
    # no more functions.
    calls, function = [], semantics._Node.function
    monkeypatch.setattr(semantics._Node, "function", lambda node: (
        calls.append(node) or function(node)))
    term = seq(par(TauStar(UNIT, (B,), (B,), C.not_gate()),
                   C.lazy_flip("1/3")),
               par(Id(star(B)), C.not_gate()),
               par(Id(star(B)), C.lazy_flip("1/4")))
    counts = []
    for k in (4, 7):
        calls.clear()
        assert Series().map(term, k) == _unrolled(term, k)
        counts.append(len(calls))
    assert counts[1] == counts[0]


def _roots(series, f, g, k):
    """The root nodes of two terms of one type at size k."""
    series._at(same_type(f, g), k)
    return series.node(f), series.node(g)


def _mutants():
    """Pairs of size-free terms one edit apart, which must compile to
    distinct nodes."""
    i, i2 = Id(B), Id(bools(2))
    third, fifth = coin(Fraction(1, 3)), coin(Fraction(1, 5))
    yield "coin-bias", third, coin(Fraction(2, 3))
    yield "id-width", i, i2
    yield "swap-sides", Swap(B, bools(2)), Swap(bools(2), B)
    yield "seq-par", seq(i, i, i), par(i, i, i)
    yield "conditional-or-not", seq(par(i, i, i), phi_gen(B)), seq(i, i, i)
    yield "conditional-word", phi_case(i, i, B), phi_case(i2, i2, bools(2))
    # One list of stages, [id, 1/3, 1/5, id], with the conditional first
    # or second: "id if 1/3 else 1/5" against "1/3 if 1/5 else id".
    yield ("conditional-position", seq(par(i, third, fifth), phi_gen(B), i),
           seq(i, par(third, fifth, i), phi_gen(B)))


@pytest.mark.parametrize("f, g", [m[1:] for m in _mutants()],
                         ids=[m[0] for m in _mutants()])
def test_terms_one_edit_apart_get_distinct_nodes(f, g):
    series = Series()
    assert series.map(f) == reference_denote(f)
    assert series.map(g) == reference_denote(g)
    assert series.node(f) is not series.node(g)
    for t in (f, g):  # and a copy of either is its node
        assert series.node(_reparsed(t)) is series.node(t)


def test_loops_over_copies_of_one_body_keep_their_maps():
    # The copies of a body are one node, so the loops share it, whatever
    # state and streams they thread; each loop's map is still its own
    # reference unrolling.
    rng = random.Random(29)
    for _ in range(5):
        body = random_circuit(rng, 2, 2, max_gens=6, max_wires=4, max_den=4)
        loops = [TauStar(B, (B,), (B,), body),
                 TauStar(B, (B,), (B,), _reparsed(body)),
                 TauStar(bools(2), (), (), _reparsed(body))]
        series = Series()
        for k in range(7):
            for t in loops:
                assert series.map(t, k) == _unrolled(t, k), k
        bodies = {series.nodes[id(t.body)][1] for t in loops}
        assert len(bodies) == 1


# ---------------------------------------------------------------------------
# Loops of one signature with equal bodies are one loop: where the second
# is built it becomes the first's ``_Loop``, and so one level node at
# every size.

@pytest.mark.parametrize("f, g", [p[1:] for p in _twin_loops()],
                         ids=[p[0] for p in _twin_loops()])
def test_loops_with_equal_bodies_are_one_loop(f, g):
    series = assert_series_agrees(f, g, range(7), _unrolled)
    for k in range(7):
        fn, gn = _roots(series, f, g, k)
        assert fn is gn, k
    assert len(_kept_loops(series)) == 1


@pytest.mark.parametrize("term, k", [
    (C.keyguess_lhs(), 10),
    (C.all_1(Fraction(1, 2)), 14),
    (C.vn_lhs(Fraction(3, 4)), 80),
], ids=["keyguess", "all1", "vonneumann"])
def test_a_parametric_file_and_its_copy_build_no_row(
        monkeypatch, capsys, tmp_path, term, k):
    # Every term of the copy is found by its shape at each size, so the
    # two roots are one node: no row is built, where compiling the parts
    # that depend on the size once per term object builds 2,055, 27 and
    # 241 rows.
    paths = [str(tmp_path / f"{side}.pbc") for side in ("file", "copy")]
    for path in paths:
        Path(path).write_text(f"main = {pretty_term(term)}\n")
    calls = _count_row_builds(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires and more warn
        assert main(["eq", *paths, "--k", str(k)]) == 0
        assert capsys.readouterr().out == f"EQUAL (every size k = 0..{k})\n"
        assert main(["dist", *paths, "--k", f"0..{k}"]) == 0
        assert capsys.readouterr().out == "".join(
            f"{size}\t0/1\n" for size in range(k + 1))
    assert calls == []


def test_the_one_time_pads_loops_read_no_level_row(monkeypatch):
    calls = _count_row_builds(monkeypatch)
    f, g = C.otp_star_lhs(), C.otp_star_rhs()
    series = Series()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires and more warn
        for k in range(11):
            assert series.distance(f, g, k) == 0
            assert series.difference(f, g, k) is None
    assert calls == []
    (loop,) = _kept_loops(series)
    assert len(loop.levels) == 11
    assert not any(level.memo for level in loop.levels)


def _last_input_only():
    """A delay line, and one that clears its state where both the state
    and the input are 1: bodies that differ only at their last input."""
    step = seq(par(copy_gen(B), Id(B)), par(Id(B), C.not_gate(), Id(B)),
               par(Id(B), C.and_gate()))
    return TauStar(B, (B,), (B,), Id(bools(2))), TauStar(B, (B,), (B,), step)


def _mutant_loops():
    """Pairs of loops that must not become one."""
    fair, third = coin(Fraction(1, 2)), coin(Fraction(1, 3))
    yield ("coin-bias", C.otp_star_lhs(),
           TauStar(UNIT, (B,), (bools(2),), par(third, Id(B))))
    yield ("coin-bias-reparsed", TauStar(UNIT, (B,), (bools(2),),
                                         par(fair, Id(B))),
           TauStar(UNIT, (B,), (bools(2),), par(third, Id(B))))
    yield ("last-input", *_last_input_only())
    # Two wiring loops: a delay line against the identity on the stream.
    yield ("wiring-swap", TauStar(B, (B,), (B,), Id(bools(2))),
           TauStar(B, (B,), (B,), Swap(B, B)))
    # One body, one type, but the empty input stream on either side:
    # the signatures differ, so the loops stay two, equal all the same.
    body = seq(par(third, Id(B)), C.xor_gate())
    yield ("stream-split", TauStar(UNIT, (B, UNIT), (B,), body),
           TauStar(UNIT, (UNIT, B), (B,), body))


@pytest.mark.parametrize("f, g", [m[1:] for m in _mutant_loops()],
                         ids=[m[0] for m in _mutant_loops()])
def test_loops_one_edit_apart_stay_two(f, g):
    series = assert_series_agrees(f, g, range(7), _unrolled)
    for k in range(1, 7):
        fn, gn = _roots(series, f, g, k)
        assert fn is not gn, k
    assert len(_kept_loops(series)) == 2


def _wrapped(t):
    """A loop inside a larger term: a size-free map draws its state,
    one coin(1/3) per wire, and the input streams pass through."""
    draw = par(*[coin(Fraction(1, 3)) for _ in t.state])
    return seq(par(draw, Id(tensor(*map(star, t.inputs)))), t)


def test_loops_inside_larger_terms_are_one_loop():
    # The loop is met where it is built, not only as a compared root, so
    # the two pipelines share one ``_Loop``, and so, in one context, one
    # root node, though their bodies are two nodes; each map is still
    # its reference unrolling.
    rng = random.Random(31)
    for _ in range(3):
        body = random_circuit(rng, 2, 2, max_gens=6, max_wires=4, max_den=4)
        nf = nf_to_term(normalize(body))
        f, g = (_wrapped(TauStar(B, (B,), (B,), t)) for t in (body, nf))
        series = assert_series_agrees(f, g, range(7), _unrolled)
        for k in range(7):
            for t in (f, g):
                assert series.map(t, k) == _unrolled(t, k), k
        assert series.node(f) is series.node(g)
        assert series.node(body) is not series.node(nf)
        assert len(_kept_loops(series)) == 1


@pytest.mark.parametrize("f, g", [p[1:] for p in _twin_loops()],
                         ids=[p[0] for p in _twin_loops()])
def test_equal_contexts_around_one_loop_are_one_node(f, g):
    # A term is found by its shape at the size: around one kept loop,
    # equal contexts are one node at every size, whose map is the
    # reference unrolling of either term.
    f, g = _wrapped(f), _wrapped(g)
    series = assert_series_agrees(f, g, range(7), _unrolled)
    for k in range(7):
        fn, gn = _roots(series, f, g, k)
        assert fn is gn, k
        for t in (f, g):
            assert series.map(t, k) == _unrolled(t, k), k
    assert len(_kept_loops(series)) == 1


@pytest.mark.parametrize("f, g", [m[1:] for m in _mutant_loops()],
                         ids=[m[0] for m in _mutant_loops()])
def test_loops_one_edit_apart_stay_two_inside_larger_terms(f, g):
    f, g = _wrapped(f), _wrapped(g)
    series = assert_series_agrees(f, g, range(7), _unrolled)
    for k in range(1, 7):
        fn, gn = _roots(series, f, g, k)
        assert fn is not gn, k
    assert len(_kept_loops(series)) == 2


def test_a_node_of_one_size_is_freed_at_the_next():
    # Nodes that depend on the size are found by their shape at that
    # size only: moving on drops them, where the kept loop's levels
    # and the size-free nodes stay.  A node's functions are held by the
    # node and by the nodes built over it, so they die with them.
    draw, streams = coin(Fraction(1, 3)), Id(star(B))
    loop = TauStar(B, (B,), (B,), seq(C.xor_gate(), copy_gen(B)))
    f = seq(par(draw, streams), loop)
    g = _reparsed(f)
    series = Series()
    for k in range(1, 5):
        assert series.distance(f, g, k) == 0
        kept = series.node(draw), series.node(loop)
        dead = (weakref.ref(series.node(f).kernel),
                weakref.ref(series.node(streams).function()))
        assert series.distance(f, g, k + 1) == 0
        assert [ref() for ref in dead] == [None, None], k
        (kept_loop,) = _kept_loops(series)
        assert kept == (series.node(draw), kept_loop.levels[k]), k



@pytest.mark.parametrize("f, g, read", [
    (C.otp_star_rhs(), TauStar(UNIT, (B,), (bools(2),),
                               par(coin(Fraction(1, 3)), Id(B))), 1),
    (*_last_input_only(), 4),
    (C.otp_star_lhs(), C.otp_star_rhs(), 2),
])
def test_a_body_check_stops_at_the_first_row_that_differs(
        monkeypatch, f, g, read):
    # The second loop, where it is built, compares its body with the
    # first's input by input, before any level row is read: one row of
    # each body per input.
    series = Series()
    series._at(typecheck(f), 1)
    series.node(f)
    rows = []
    row = semantics._row

    def counted(node, x):
        rows.append(x)
        return row(node, x)

    monkeypatch.setattr(semantics, "_row", counted)
    series.node(g)
    assert rows == [x for x in range(read) for _ in "fg"]
