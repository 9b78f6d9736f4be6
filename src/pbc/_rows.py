"""Integer rows: the format of one input's distribution in the
evaluator, and the kernels that build and compare rows.

A row is ``(den, {output: numerator})``, int numerators summing to the
int ``den``; a row of support one is always ``(1, {value: 1})``, and
numerators become reduced Fractions only in finished maps
(``_fractions``).  A row is never mutated once made, so one row object
may stand in many memos and in many rows' parts.  A row concatenated
from rows whose outputs cannot collide may keep them as its parts
(``_Cat``, a rope; Boehm, Atkinson and Plass, "Ropes: an Alternative to
Strings", SP&E 1995), read as a dict only when first asked to
(``_plain``).  ``_place`` places a rope anew beside a point, and
``_excess`` compares two ropes part against part.  No other module
reads a rope's fields.  No floating point is used in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .terms import PBCError

__all__ = ["WireLimitError"]

ZERO = Fraction(0)


class WireLimitError(PBCError):
    """A denotation would exceed the configured wire budget."""


def _support_error(size: int, cap: int) -> WireLimitError:
    return WireLimitError(
        f"an intermediate distribution has {size} outcomes, above the "
        f"limit of {cap} (2^PBC_MAX_WIRES; set PBC_MAX_WIRES to raise it)")


def _mix(den: int, parts: list, cap: int, push=None) -> tuple:
    """The row of a mixture: each part ``(n, hi, (d, row))`` is the row
    taken with weight n / den, with ``hi`` or-ed into its outputs and
    ``push``, when given, applied to them.

    The rows are brought to one common denominator, so every weight is
    an int product and no gcd runs per entry; the mixture is then divided
    by the gcd of its denominator and numerators, so a chain of mixtures
    does not multiply its denominators up.  A lone part with no ``hi`` or
    ``push`` is its row: a row of support one is ``(1, {v: 1})``.
    """
    if len(parts) == 1 and parts[0][1] == 0 and push is None:
        return parts[0][2]
    scale = math.lcm(*{d for _, _, (d, _) in parts})
    out: dict = {}
    get = out.get
    for n, hi, (d, row) in parts:
        if d != scale:
            n *= scale // d
        for y, m in _plain(row).items():
            y |= hi
            if push is not None:
                y = push(y)
            out[y] = get(y, 0) + n * m
        if len(out) > cap:
            raise _support_error(len(out), cap)
    if len(out) == 1:
        return 1, dict.fromkeys(out, 1)
    den *= scale
    g = math.gcd(den, *out.values())
    if g == 1:
        return den, out
    return den // g, {y: m // g for y, m in out.items()}


# A concatenation of fewer entries is copied into a dict: walking parts
# that small costs more than scanning them.
_CAT_FLOOR = 64


class _Cat:
    """A row concatenated from parts whose outputs cannot collide, kept
    as its parts, a rope: ``(n, s, hi, row, d)`` is ``row``, whose
    numerators sum to d, read as ``{(y << s) | hi: v * n}``, and ``row``
    may be another ``_Cat``.  Every part's row, so placed, lies below
    bit ``split`` once the bits of ``hi`` at and above it are cleared,
    and those bits, the part's head, differ from part to part.  ``len``
    is the size it was given, two or more, read without flattening; the
    entries are read only through ``_plain``, the dict of them, part by
    part in order, built on first use and kept (``plain``).  Like every
    row it is never changed, so it may stand in many rows' parts and
    many memos.
    """

    __slots__ = ("parts", "size", "split", "flat")

    def __init__(self, parts: tuple, size: int, split: int):
        self.parts = parts
        self.size = size
        self.split = split
        self.flat = None  # the entries as a dict, once built

    def plain(self) -> dict:
        """The entries as a dict, built once: the leaf rows are found on
        an explicit stack, then read in one pass."""
        if self.flat is None:
            leaves, todo = [], [(1, 0, 0, self)]
            while todo:
                m, s, at, row = todo.pop()
                if row.__class__ is _Cat:
                    if row.flat is None:
                        todo += [(m * n, s + ps, at | (hi << s), part)
                                 for n, ps, hi, part, _ in reversed(row.parts)]
                        continue
                    row = row.flat
                leaves.append((m, s, at, row))
            # Most rows scale and shift no part, and skip both.
            self.flat = ({y | at: v for _, _, at, row in leaves
                          for y, v in row.items()}
                         if all(m == 1 and not s for m, s, _, _ in leaves)
                         else {(y << s) | at: v * m for m, s, at, row in leaves
                               for y, v in row.items()})
        return self.flat

    def __len__(self):
        return self.size


def _plain(row) -> dict:
    """A row as a dict."""
    return row.plain() if row.__class__ is _Cat else row


def _concat(den: int, parts: list, cap: int, split: int) -> tuple:
    """``_mix`` of parts whose outputs, after ``hi``, are pairwise
    disjoint, each part's row lying below bit ``split`` and each ``hi`` a
    distinct multiple of ``2^split``: the same row, with the same entries
    in the same order, and no lookup per entry.  A row of ``_CAT_FLOOR``
    entries or more is kept as its parts (``_Cat``), and no entry is
    copied.  The support is summed part by part, so it is refused at the
    part where it passes the cap, as ``_mix`` refuses it."""
    if len(parts) == 1 and parts[0][1] == 0:
        return parts[0][2]
    scale = math.lcm(*{d for _, _, (d, _) in parts})
    kept, size = [], 0
    for n, hi, (d, row) in parts:
        size += len(row)
        if size > cap:
            raise _support_error(size, cap)
        kept.append((n * (scale // d), 0, hi, row, d))
    if size == 1:
        ((_, _, hi, row, _),) = kept
        (y,) = row
        return 1, {y | hi: 1}
    row = _Cat(tuple(kept), size, split)
    return den * scale, row if size >= _CAT_FLOOR else row.plain()


def _place(hi: int, wide: list, cap: int) -> tuple:
    """The row of a tensor: the point ``hi`` of the outputs its other
    factors fix, beside its rows of more than one outcome, each ``(to,
    den, row)`` placed at bit ``to``, from left to right, the left one
    varying slowest.  A lone row beside no point at bit 0 is itself, and
    a lone rope is placed anew part by part, no entry copied.  A lone
    row is within the cap already; several are refused, before they
    are multiplied, at the product of their sizes, the tensor's whole
    outcome count."""
    if len(wide) == 1:
        ((to, den, row),) = wide
        if not (to or hi):
            return den, row
        if row.__class__ is _Cat:
            return den, _Cat(tuple((n, s + to, (at << to) | hi, part, d)
                                   for n, s, at, part, d in row.parts),
                             row.size, row.split + to)
    elif (size := math.prod([len(row) for _, _, row in wide])) > cap:
        raise _support_error(size, cap)
    den, out = 1, {hi: 1}
    for to, d, row in wide:
        den *= d
        out = {u | y << to: n * m
               for u, n in out.items() for y, m in _plain(row).items()}
    return den, out


def _fractions(den: int, row, weights: dict) -> dict:
    """A row with Fraction weights.  ``weights`` holds one Fraction per
    (denominator, numerator), shared by every row read through it."""
    row = _plain(row)
    known = weights.setdefault(den, {})
    for n in row.values():
        if n not in known:
            known[n] = Fraction(n, den)
    return {y: known[n] for y, n in row.items()}


# ---------------------------------------------------------------------------
# Distances.

def _tv(da: int, a, db: int, b, memo: dict | None = None) -> Fraction:
    """Total variation distance of two integer rows: numerators over the
    denominators ``da`` and ``db``, each row's numerators summing to its
    denominator.

    So the mass where one row exceeds the other is the same from either
    side, half their pointwise difference, and one pass over the
    smaller row sums it: its numerators less the other row's, both
    scaled to the least common denominator s, where positive.  The sum
    runs over ints and a single Fraction is built at the end.  One row
    object on both sides, as two terms over one loop give, is at
    distance 0 at once.

    Two rows kept as their parts (``_Cat``) of one split are compared
    part against part (``_excess``), and not flattened.  ``memo``, one
    per scan, holds the sums of the pairs of parts met so far; without
    it each call starts a memo of its own.
    """
    if a is b:
        return ZERO
    s = math.lcm(da, db)
    ma, mb = s // da, s // db
    if a.__class__ is _Cat and b.__class__ is _Cat and a.split == b.split:
        memo = {} if memo is None else memo
        return Fraction(_excess(ma, a, mb, b, memo), s)
    a, b = _plain(a), _plain(b)
    if da == db and a == b:
        return ZERO
    if len(b) < len(a):
        a, ma, b, mb = b, mb, a, ma
    get = b.get
    if ma == mb:
        return Fraction(sum([e for y, n in a.items()
                             if (e := n - get(y, 0)) > 0]), da)
    return Fraction(sum([e for y, n in a.items()
                         if (e := n * ma - get(y, 0) * mb) > 0]), s)


def _excess(ma: int, a: _Cat, mb: int, b: _Cat, memo: dict) -> int:
    """The mass rope a, times ma, puts above rope b of its split, times
    mb: the sum over every output of ``ma * a[z] - mb * b[z]`` where
    positive, summed part against part on an explicit stack.

    A pair of parts is ``(ma, sa, ata, A, ta, mb, sb, atb, B)``: row A,
    whose numerators sum to ta, read as ``{(y << sa) | ata: v * ma}``,
    and row B likewise, without its total (see ``_paired``).

    - One row at one place adds ``ma - mb`` times its total, if
      positive.
    - Two ropes of one absolute split, ``_Cat.split`` plus the shift,
      are paired part by part in turn.
    - Any other pair is flattened and scanned over A's entries.

    ``memo`` holds the sum of each pair of parts met, by the rows' ids,
    the multipliers divided by their gcd, the shifts and the offsets,
    with the two rows, so that each id stays its row's while the memo
    lives.  So a part that many rows share is summed once per place.
    """
    inner, whole = _paired(ma, 0, 0, a, mb, 0, 0, b)
    stack = [(iter(inner), [whole], None, 1)]
    while True:
        pairs, acc, key, scale = stack[-1]
        for ma, sa, ata, ra, ta, mb, sb, atb, rb in pairs:
            if ra is rb and sa == sb and ata == atb:
                if ma > mb:
                    acc[0] += (ma - mb) * ta
                continue
            g = math.gcd(ma, mb)
            if g != 1:
                ma //= g
                mb //= g
            k = (id(ra), id(rb), ma, mb, sa, sb, ata, atb)
            known = memo.get(k)
            if known is not None:
                acc[0] += known[0] * g
                continue
            if (ra.__class__ is _Cat and rb.__class__ is _Cat
                    and ra.split + sa == rb.split + sb):
                inner, whole = _paired(ma, sa, ata, ra, mb, sb, atb, rb)
                stack.append((iter(inner), [whole], (k, ra, rb), g))
                break
            if sa == sb and ata == atb:  # compared where they stand
                sa = ata = sb = atb = 0
            get = _placed(rb, sb, atb, memo).get
            e = sum([e for y, v in _placed(ra, sa, ata, memo).items()
                     if (e := v * ma - get(y, 0) * mb) > 0])
            memo[k] = e, ra, rb
            acc[0] += e * g
        else:
            stack.pop()
            if not stack:
                return acc[0]
            (k, ra, rb), e = key, acc[0]
            memo[k] = e, ra, rb
            stack[-1][1][0] += e * scale


def _paired(ma: int, sa: int, ata: int, a: _Cat,
            mb: int, sb: int, atb: int, b: _Cat) -> tuple:
    """The pairs of parts of two placed ropes of one absolute split p,
    matched by head, the output bits at and above p, with those bits
    cleared from both offsets; and the mass of a's parts whose head b
    lacks.  A part of b whose head a lacks puts nothing of a above b."""
    p = a.split + sa
    low = (1 << p) - 1
    heads = {}
    for n, s, hi, row, _ in b.parts:
        at = (hi << sb) | atb
        heads[at >> p] = mb * n, sb + s, at & low, row
    inner, whole = [], 0
    for n, s, hi, row, d in a.parts:
        at = (hi << sa) | ata
        other = heads.get(at >> p)
        if other is None:
            whole += ma * n * d
        else:
            inner.append((ma * n, sa + s, at & low, row, d, *other))
    return inner, whole


def _placed(row, s: int, at: int, memo: dict) -> dict:
    """A row as a dict at its place, ``{(y << s) | at: v}``, built once
    per memo."""
    row = _plain(row)
    if not s and not at:
        return row
    key = id(row), s, at
    known = memo.get(key)
    if known is None:
        known = memo[key] = {(y << s) | at: v for y, v in row.items()}, row
    return known[0]
