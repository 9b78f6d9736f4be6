"""Exact distance series over the iteration size, and decay reports.

Two parametric circuits are compared by evaluating both at each size k
in a range and measuring the exact hom distance of the results; one
compilation of both (``semantics.Series``) serves the whole range.  A
``DecaySeries`` is the raw list of (k, d_k); ``negligibility_report``
scales it by k^a, classifies the trend, and looks for a threshold
witness.  Everything is computed in rationals; the one floating-point
number, ``fitted_rate``, is an explicitly approximate least-squares
slope offered for orientation only.

A report is bounded evidence.  The tool never claims the limit: it
states that the sampled, exactly computed values are consistent with
the scaled distance going to zero, or that they visibly are not.

``newton_bound_check`` verifies the transport of a one-step bound to
the k-fold iteration: if the one-step square commutes up to ``a``, the
iterated sides stay within ``k * a`` at every size.  ``lemma_demo``
rebuilds the stock examples (one-time pad, the all-ones detector, key
guessing, the von Neumann coin) and asserts their closed-form decay
laws on top of the numeric series.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from statistics import linear_regression

from .objects import obj_to_str, star, tensor
from .terms import (
    Id, PBCError, PBCTypeError, TauStar, Term, exact_rational, par,
    pretty_term, same_type, seq, typecheck,
)
from .semantics import Series
from .iteration import TupleSpec
from . import combinators as C

__all__ = [
    "DecaySeries", "DecayReport", "EqualityReport", "NewtonReport",
    "CONSISTENT", "NOT_DECREASING", "INCONCLUSIVE",
    "distance_series", "negligibility_report", "newton_bound_check",
    "lemma_demo", "report_to_csv",
]

CONSISTENT = "ConsistentWithNegligible"
NOT_DECREASING = "NotDecreasing"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, slots=True)
class DecaySeries:
    """Exact distances d_k = d(S_k(f), S_k(g)) over increasing sizes k."""

    pairs: tuple  # ((k, Fraction), ...)
    f_label: str
    g_label: str

    def __post_init__(self):
        # Sizes are ints and distances exact: a float is a TypeError.
        pairs = tuple((operator.index(k), exact_rational(d))
                      for k, d in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        ks = [k for k, _ in pairs]
        if ks != sorted(set(ks)):
            raise PBCError("series sizes must be strictly increasing")
        for k, d in pairs:
            if not 0 <= d <= 1:
                raise PBCError(f"distance {d} at k={k} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class DecayReport:
    """A series scaled by k^a with a trend verdict.

    ``threshold_witness`` is (epsilon, N): from size N on, every sampled
    scaled value is below epsilon; when no sampled value gets that low
    but the tail does decay, N marks the onset of strict decrease
    instead (bounded evidence either way).  ``fitted_rate`` is the
    least-squares slope of ln d_k over k, an approximate float, absent
    when fewer than three positive distances exist.
    """

    series: DecaySeries
    exponent_a: int
    scaled: tuple  # ((k, Fraction), ...)
    fitted_rate: float | None
    verdict: str
    threshold_witness: tuple | None  # (Fraction, int)


@dataclass(frozen=True, slots=True)
class EqualityReport:
    """Outcome of a demo whose claim is exact equality at every size."""

    series: DecaySeries


@dataclass(frozen=True, slots=True)
class NewtonReport:
    """Per-size conclusion distances against the k-scaled premise gap."""

    premise_distance: Fraction
    rows: tuple  # ((k, c_k, k * premise), ...)


def distance_series(f: Term, g: Term, k_min: int, k_max: int,
                    f_label: str | None = None,
                    g_label: str | None = None) -> DecaySeries:
    """Exact hom distances of the two terms at each size k, from one
    compilation of both for the whole range."""
    same_type(f, g)
    if not 0 <= k_min <= k_max:
        raise PBCError(f"bad size range {k_min}..{k_max}")
    series = Series()
    pairs = tuple((k, series.distance(f, g, k))
                  for k in range(k_min, k_max + 1))
    return DecaySeries(pairs,
                       f_label if f_label is not None else pretty_term(f),
                       g_label if g_label is not None else pretty_term(g))


def _fit_rate(pairs) -> float | None:
    positive = [(k, d) for k, d in pairs if d > 0]
    if len(positive) < 3:
        return None
    xs = [float(k) for k, _ in positive]
    # Below the normal float range a distance keeps too few bits, or
    # reads 0.0; unless the float is exact, log numerator and denominator.
    ys = [math.log(x) if (x := float(d)) >= sys.float_info.min or x == d
          else math.log(d.numerator) - math.log(d.denominator)
          for _, d in positive]
    return linear_regression(xs, ys).slope


def negligibility_report(series: DecaySeries, a: int,
                         epsilon) -> DecayReport:
    """Scale a series by k^a and classify the trend.

    The verdict looks at the tail (the last half of the scaled
    entries): a tail of exact zeros, or a strictly decreasing one with
    a strict overall drop, reads as consistent with the scaled distance
    vanishing, a non-decreasing tail as the opposite, anything else as
    inconclusive.  A single sample supports no trend at all unless it
    is zero.
    """
    if not isinstance(a, int):
        raise PBCError(f"scaling exponent must be an int, got {a!r}")
    if a < 0:
        raise PBCError(f"scaling exponent must be >= 0, got {a}")
    epsilon = exact_rational(epsilon)
    if epsilon <= 0:
        raise PBCError(f"threshold must be positive, got {epsilon}")
    if not series.pairs:
        raise PBCError("empty series")
    scaled = tuple((k, Fraction(k) ** a * d) for k, d in series.pairs)
    values = [v for _, v in scaled]

    zeros = len(values)  # where the closing run of zero distances starts
    while zeros > 0 and series.pairs[zeros - 1][1] == 0:
        zeros -= 1
    tail = values[-((len(values) + 1) // 2):]
    zero_tail = zeros <= len(values) - len(tail)
    if zero_tail:
        verdict = CONSISTENT
    elif len(values) == 1:
        verdict = INCONCLUSIVE
    elif (all(x > y for x, y in zip(tail, tail[1:]))
            and tail[-1] < tail[0]):
        verdict = CONSISTENT
    elif all(x <= y for x, y in zip(tail, tail[1:])):
        verdict = NOT_DECREASING
    else:
        verdict = INCONCLUSIVE

    witness = None
    if zero_tail:
        # Exactly zero from the run's first size on: below any epsilon.
        witness = (epsilon, scaled[zeros][0])
    elif verdict == CONSISTENT:
        # Longest suffix below the threshold at every sampled size.
        i = len(scaled)
        while i > 0 and scaled[i - 1][1] < epsilon:
            i -= 1
        if i < len(scaled):
            witness = (epsilon, scaled[i][0])
        else:
            # Nothing sampled gets under epsilon; witness the onset of
            # strict decrease instead.
            j = len(scaled) - 1
            while j > 0 and scaled[j - 1][1] > scaled[j][1]:
                j -= 1
            witness = (epsilon, scaled[j][0])

    return DecayReport(series, a, scaled, _fit_rate(series.pairs),
                       verdict, witness)


def newton_bound_check(f: Term, g: Term, h: Term, spec: TupleSpec,
                       k_max: int) -> NewtonReport:
    """Check the iterated sides against k times the one-step gap.

    ``f`` maps the state of ``h`` to the state of ``g``; both loop
    bodies share the stream signature in ``spec`` (stated for ``h``).
    The premise gap is the distance between ``(f x id);g`` and
    ``h;(id x f)``; the conclusion compares ``(f x id);iter(g)``
    against ``iter(h);(id x f)`` at each size.  A size where the
    conclusion exceeds k times the premise would refute the transport
    bound, so it raises instead of reporting.
    """
    jf = typecheck(f)
    if jf.domain != spec.state:
        raise PBCTypeError(
            f"the state map f must start at the state "
            f"{obj_to_str(spec.state)} of h, got f : {jf}")
    in_one = tensor(*spec.inputs)
    out_one = tensor(*spec.outputs)
    in_streams = tensor(*(star(o) for o in spec.inputs))
    out_streams = tensor(*(star(o) for o in spec.outputs))
    lhs = seq(par(f, Id(in_streams)),
              TauStar(jf.codomain, spec.inputs, spec.outputs, g))
    rhs = seq(TauStar(spec.state, spec.inputs, spec.outputs, h),
              par(Id(out_streams), f))
    same_type(lhs, rhs)  # before the premise: a bad body fails as a loop's
    if k_max < 0:
        raise PBCError(f"negative size bound {k_max}")

    # One series for both pairs, which share f, g and h.
    series = Series()
    premise_lhs = seq(par(f, Id(in_one)), g)
    premise_rhs = seq(h, par(Id(out_one), f))
    gap = series.distance(premise_lhs, premise_rhs)

    rows = []
    for k in range(0, k_max + 1):
        c = series.distance(lhs, rhs, k)
        ceiling = k * gap
        if c > ceiling:
            raise PBCError(
                f"iterated gap {c} at k={k} exceeds {k} x {gap}; "
                "the transport bound is violated")
        rows.append((k, c, ceiling))
    return NewtonReport(gap, tuple(rows))


# ---------------------------------------------------------------------------
# Stock demonstrations with their closed-form laws.

_DEMO_CAP = 10  # OTP-star is 2k wires wide: k = 10 is at the 20-wire limit


# The decay demos: the pair and its labels at bias p, the default bias
# (None: the demo takes no bias), a size cap, the base of the decay law
# at p, the law's name, and whether the law is exact from size 1 on
# rather than an upper bound.
_DECAY_DEMOS = {
    "all1": (lambda p: (C.all_1(p), C.all_1_rhs(p),
                        f"all1({p})", f"all1_rhs({p})"),
             Fraction(1, 2), None, lambda p: p, "all-ones", False),
    # 2^k rows of 2^k outcomes, each kept as the shared rows it
    # concatenates: size 12 is 13 wires wide, below the soft limit.
    "keyguess": (lambda p: (C.keyguess_lhs(), C.keyguess_rhs(),
                            "keyguess_lhs", "keyguess_rhs"),
                 None, 12, lambda p: Fraction(1, 2), "key-guess", False),
    "vonneumann": (lambda p: (C.vn_lhs(p), C.vn_rhs(),
                              f"vonneumann({p})", "vonneumann_rhs"),
                   Fraction(3, 4), None, lambda p: abs(2 * p - 1),
                   "von Neumann", True),
}


def _powers(base: Fraction, k_max: int):
    # base^k with 0^0 = 1
    out = [Fraction(1)]
    for _ in range(k_max):
        out.append(out[-1] * base)
    return out


def lemma_demo(name: str, k_max: int = 10, p=None):
    """Rebuild a named example pair and verify its decay law.

    Names: ``otp`` (exact equality at every size, sizes capped at 10),
    ``all1`` (bound p^k), ``keyguess`` (bound (1/2)^k, sizes capped at
    12), and ``vonneumann`` (exact law |2p-1|^k from size 1 on).  ``p``
    applies to ``all1`` (default 1/2) and ``vonneumann`` (default 3/4).

    The returned report leaves the series unscaled (exponent 0); rerun
    ``negligibility_report`` on its series for other exponents.
    """
    if k_max < 0:
        raise PBCError(f"negative size bound {k_max}")
    demo = _DECAY_DEMOS.get(name)
    if p is not None and (name == "otp" or demo and demo[1] is None):
        raise PBCError(f"demo {name} takes no bias parameter")
    if p is not None:
        p = exact_rational(p)
        if not 0 < p < 1:
            raise PBCError(f"bias must be strictly between 0 and 1, got {p}")

    if name == "otp":
        hi = min(k_max, _DEMO_CAP)
        series = distance_series(C.otp_star_lhs(), C.otp_star_rhs(),
                                 0, hi, "otp_lhs", "otp_rhs")
        if any(d != 0 for _, d in series.pairs):
            raise PBCError("one-time pad drifted under iteration")
        return EqualityReport(series)

    if demo is None:
        raise PBCError(f"unknown demo: {name!r}")
    pair, default_p, cap, base, law_name, exact = demo
    p = default_p if p is None else p
    hi = k_max if cap is None else min(k_max, cap)
    f, g, f_label, g_label = pair(p)
    series = distance_series(f, g, 0, hi, f_label, g_label)
    law = _powers(base(p), hi)
    for k, d in series.pairs:
        if exact and k >= 1 and d != law[k]:
            raise PBCError(f"{law_name} distance {d} at k={k} "
                           f"differs from {law[k]}")
        if not exact and d > law[k]:
            raise PBCError(f"{law_name} distance {d} at k={k} "
                           f"exceeds {law[k]}")
    return negligibility_report(series, 0, Fraction(1, 100))


def report_to_csv(report: DecayReport) -> str:
    """CSV rows plus verdict footer, all values exact."""
    lines = ["k,d_num,d_den,scaled_num,scaled_den"]
    for (k, d), (_, s) in zip(report.series.pairs, report.scaled):
        lines.append(f"{k},{d.numerator},{d.denominator},"
                     f"{s.numerator},{s.denominator}")
    lines.append(f"verdict={report.verdict}")
    if report.threshold_witness is None:
        lines.append("witness_N=none")
    else:
        lines.append(f"witness_N={report.threshold_witness[1]}")
    if report.fitted_rate is None:
        lines.append("fitted_rate=none")
    else:
        lines.append(f"fitted_rate={report.fitted_rate!r}")
    return "\n".join(lines) + "\n"
