"""Every kind of ``;`` stage after every kind of row, and the two node
kinds that keep no rows, against the dense reference.

A stage of ``Series._seq`` reads the row its previous stage gives: a
point, a dict, a rope (``_rows._Cat``) or a rope placed beside a point.
Each stage kind, injective or merging deterministic, a product, a
kernel or a conditional, must give the reference map after each.  A
``;`` whose first stage is deterministic keeps no rows (its memo is a
``semantics._Through``), and a loop over wiring is wiring, one
selection per level; each must read out as the reference map where
another node reads its rows: as a tensor factor, a ``;`` stage, a
conditional's chooser and arm, and a loop body.  Rows are read at sizes
where they are ropes from two entries on (``_rows._CAT_FLOOR`` patched)
and at the default floor.
"""

import warnings

import pytest

from pbc import (
    B, Id, Swap, TauStar, UNIT, bools, coin, discard_gen, instantiate, par,
    phi_gen, seq, star, tensor, typecheck,
)
from pbc import combinators as C
from pbc import _rows, semantics
from pbc.semantics import Series
from reference import reference_denote

# Read before any test patches it.
DEFAULT_FLOOR = _rows._CAT_FLOOR


def _kind(node) -> str:
    if node.sel is not None:
        return "wiring"
    if node.memo is None:
        return "function"
    return "through" if node.memo.__class__ is semantics._Through else "rows"


def _assert_reference(term, sizes, monkeypatch, floor=2):
    """The term's map at each size, through one series moved through the
    sizes and through a fresh one, is its reference unrolling's; rows
    are ropes from ``floor`` entries on.  The series."""
    monkeypatch.setattr(_rows, "_CAT_FLOOR", floor)
    series = Series()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires and more warn
        for k in sizes:
            want = reference_denote(instantiate(k, term))
            assert series.map(term, k) == want, k
            assert Series().map(term, k) == want, k
    return series


# ---------------------------------------------------------------------------
# Row kinds, each of type ... -> B^* x B, and stage kinds, each of type
# B^* x B -> ...

_COINS = TauStar(UNIT, (), (B,), coin("1/2"))

ROWS = {
    # A deterministic first stage: the rest reads a point, and the ;
    # keeps no rows.
    "deterministic": par(Id(star(B)), C.not_gate()),
    # A loop over a deterministic body that is not wiring: a kernel whose
    # rows are points.
    "point": par(TauStar(UNIT, (), (B,), coin(1)), Id(B)),
    "dict": par(Id(star(B)), C.lazy_flip("1/3")),
    # A loop level's own row, kept as its parts.
    "rope": TauStar(B, (), (B,), par(coin("1/2"), Id(B))),
    "rope-beside-point": par(_COINS, Id(B)),
}

# A ; whose first stage is deterministic (the conditional in lazy_flip
# is its rest), and a wiring loop, the delay line cycle(B) runs.
THROUGH = seq(par(Id(star(B)), C.not_gate()),
              par(Id(star(B)), C.lazy_flip("1/3")))
DELAY = TauStar(B, (B,), (B,), Id(bools(2)))

STAGES = {
    "injective": par(Id(star(B)), C.not_gate()),
    "merging": par(C.discard_at(star(B)), C.not_gate()),
    "merging-wiring": par(Id(star(B)), discard_gen(B)),
    # Wiring beside a coin: placed when the wiring is injective.
    "product": par(Id(star(B)), coin("1/3"), Id(B)),
    "product-merging": par(C.discard_at(star(B)), coin("1/3"), Id(B)),
    "kernel": par(Id(star(B)), C.lazy_flip("1/4")),
    "loop": par(TauStar(UNIT, (B,), (B,), C.lazy_flip("1/4")), Id(B)),
    # (c x m x d) ; if<B>: a case split whose then-arm keeps no rows.
    "conditional": seq(par(seq(C.discard_at(star(B)), coin("1/3")), Id(B),
                           coin("1/5")), phi_gen(B)),
    "through": THROUGH,
    "wiring-loop": seq(Swap(star(B), B), DELAY),
}


@pytest.mark.parametrize("stage", STAGES, ids=str)
@pytest.mark.parametrize("row", ROWS, ids=str)
def test_every_stage_after_every_row_kind_reads_the_reference_map(
        monkeypatch, row, stage):
    term = seq(ROWS[row], STAGES[stage])
    _assert_reference(term, range(5), monkeypatch)
    _assert_reference(term, [6], monkeypatch, floor=DEFAULT_FLOOR)


def test_the_new_node_kinds_are_built_where_the_matrix_puts_them():
    series = Series()
    series._at(typecheck(THROUGH), 3)
    assert _kind(series.node(THROUGH)) == "through"
    assert _kind(series.node(C.lazy_flip("1/3"))) == "through"
    assert _kind(series.node(seq(ROWS["deterministic"], STAGES["kernel"]))
                 ) == "through"
    series._at(typecheck(DELAY), 3)
    assert _kind(series.node(DELAY)) == "wiring"
    assert series.node(DELAY).n_in == 4


# ---------------------------------------------------------------------------
# The two node kinds where other nodes read their rows.

# Of type B -> B, and of type B x B^* -> B, the last element of a stream
# or the state when the stream is empty.
FLIP = C.lazy_flip("1/3")
LAST = TauStar(B, (B,), (), par(discard_gen(B), Id(B)))

PLACES = {
    "through-factor-left": par(THROUGH, coin("1/5")),
    "through-factor-middle": par(coin("1/5"), THROUGH, Id(B)),
    "wiring-factor-left": par(DELAY, coin("1/5")),
    "wiring-factor-middle": par(coin("1/5"), DELAY, Id(B)),
    "through-first": seq(THROUGH, STAGES["product"]),
    "wiring-first": seq(Swap(star(B), B), DELAY, STAGES["kernel"]),
    # (c x m x d) ; if<B>, the arm c and the chooser m of either kind.
    "through-chooser-wiring-arm": seq(par(LAST, FLIP, coin("1/5")),
                                      phi_gen(B)),
    "wiring-chooser-through-arm": seq(par(coin("1/3"), LAST, FLIP),
                                      phi_gen(B)),
    "through-arms": seq(par(FLIP, coin("1/3"), FLIP), phi_gen(B)),
    # Loop bodies: elementwise, over the state, and over a stream.
    "through-body-elementwise": TauStar(UNIT, (B,), (B,), FLIP),
    "through-body-state": TauStar(B, (), (), FLIP),
    "through-body-starred-state": TauStar(tensor(star(B), B), (), (),
                                          THROUGH),
    "wiring-body": C.cycle_back(B),
    "wiring-body-then-coin": TauStar(
        tensor(B, star(B)), (), (),
        seq(C.cycle(B), par(C.lazy_flip("1/4"), Id(star(B))))),
}


@pytest.mark.parametrize("term", PLACES.values(), ids=PLACES)
def test_nodes_that_keep_no_rows_read_out_where_others_read_them(
        monkeypatch, term):
    _assert_reference(term, range(5), monkeypatch)
    _assert_reference(term, [6], monkeypatch, floor=DEFAULT_FLOOR)


def test_a_stream_of_streams_reads_its_last_elements(monkeypatch):
    # The body is the wiring loop LAST; the input is k streams of k.
    term = TauStar(B, (star(B),), (), LAST)
    _assert_reference(term, range(4), monkeypatch)


# ---------------------------------------------------------------------------
# Wiring loops, bare and inside larger terms.

WIRING_LOOPS = {
    "copy": C.copy_at(star(B)),
    "discard": C.discard_at(star(B)),
    "copy-starred-and-bool": C.copy_at(tensor(star(B), B)),
    # Two streams in, or two out: a pop or a push that is not the
    # identity.
    "zip": C.zip_streams(B, B),
    "unzip": C.unzip_streams(B, B),
    "cycle": C.cycle(B),
    # A loop over a loop.
    "cycle-back": C.cycle_back(B),
}


def _inside(loop):
    """The loop beside a kernel, between a stage that draws a coin
    beside its inputs and one that negates the kernel's output."""
    t = typecheck(loop)
    return seq(par(coin("1/3"), Id(t.domain)),
               par(C.lazy_flip("1/4"), loop),
               par(C.not_gate(), Id(t.codomain)))


@pytest.mark.parametrize("loop", WIRING_LOOPS.values(), ids=WIRING_LOOPS)
def test_wiring_loops_are_wiring_and_read_the_reference_map(monkeypatch,
                                                            loop):
    series = _assert_reference(loop, range(7), monkeypatch)
    for k in range(7):
        series._at(typecheck(loop), k)
        assert series.node(loop).sel is not None, k
    _assert_reference(_inside(loop), range(7), monkeypatch)
