"""Tail-slope estimation of exponential growth rates.

Shared by word-count entropy estimates and transition-probability decay
estimates.  Counts supported on a residue class (e.g. walks on the integer
line return only at even times) are handled by detecting the period as the
gcd of gaps between nonzero indices: every nonzero index then lies in one
residue class, and the slope is fitted on it, matching a limsup that
ignores the zero subsequence.

The fit window is a constant, ``TAIL``, not an option: entropy is a
property of the language (h = limsup (1/n) log c_n), so an estimate depends
only on the sequence, and the window is part of the estimator, not of the
question.  A better estimator changes the fit model here, in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import linear_regression
from typing import Optional, Sequence

NEG_INF = float("-inf")
TAIL = 20   # trailing nonzero points of every fit


class InsufficientData(ValueError):
    """Fewer than two usable nonzero data points in the fit window."""


def log_value(v) -> float:
    """Natural log for ints (arbitrary precision), Fractions and floats."""
    if isinstance(v, Fraction):
        return math.log(v.numerator) - math.log(v.denominator)
    return math.log(v)


@dataclass
class GrowthFit:
    """Least-squares slope of log(values[n]) against n on the nonzero tail."""

    value: float                  # nats per step; -inf for finite support
    period: int
    residual: float
    points_used: int
    last_ratio: Optional[float] = None
    finite: bool = False


def fit_log_growth(values: Sequence) -> GrowthFit:
    """Fit the exponential growth rate of a nonnegative sequence on its
    last ``TAIL`` nonzero points (fixed: a sequence has one estimate).  If
    the sequence ends in a run of zeros longer than the detected period,
    the support is taken to be finite and the -inf sentinel is returned.
    """
    nonzero = [n for n, v in enumerate(values) if v > 0]
    if not nonzero:
        return GrowthFit(value=NEG_INF, period=1, residual=0.0, points_used=0, finite=True)
    gaps = [b - a for a, b in zip(nonzero, nonzero[1:])]
    period = math.gcd(*gaps) if gaps else 1
    trailing_zeros = (len(values) - 1) - nonzero[-1]
    if trailing_zeros > period:
        return GrowthFit(
            value=NEG_INF, period=period, residual=0.0, points_used=0, finite=True
        )
    pts = nonzero[-TAIL:]
    if len(pts) < 2:
        raise InsufficientData(
            f"need >= 2 nonzero points in the fit window, got {len(pts)}"
        )
    ys = [log_value(values[n]) for n in pts]
    fit = linear_regression(pts, ys)
    residual = max(abs(y - (fit.intercept + fit.slope * n)) for n, y in zip(pts, ys))
    last, prev = nonzero[-1], nonzero[-2]
    last_ratio = (log_value(values[last]) - log_value(values[prev])) / (last - prev)
    return GrowthFit(
        value=fit.slope,
        period=period,
        residual=residual,
        points_used=len(pts),
        last_ratio=last_ratio,
        finite=False,
    )
