"""Analytic balls-in-bins model of the binned indexes.

Flajslik et al. give the expected O(n/b) search cost for *b* bins; the
precise distributional statements follow from the classic balls-in-
bins occupancy model: hashing *n* distinct keys into *b* bins makes
each bin's load approximately Poisson(n/b). This module computes the
closed-form predictions —

* expected fraction of empty bins,
* expected number of colliding insertions,
* the expected maximum bin load (via a union-bound quantile),

so the measured Fig. 7 statistics can be checked against theory, not
just against the paper's numbers. Agreement here is evidence the hash
family spreads MPI's clustered key domains like an ideal random
function (the property the design assumes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["BinsPrediction", "predict", "compare_with_measurement"]


@dataclass(frozen=True, slots=True)
class BinsPrediction:
    """Closed-form occupancy predictions for n keys in b bins."""

    keys: int
    bins: int
    load: float  #: n / b
    expected_empty_fraction: float
    expected_collisions: float
    expected_max_load: float


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(n: int) -> float:
    """``log(n!) - log(sqrt(2 pi n) (n/e)^n)`` for ``n >= 1``."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _HALF_LOG_2PI
    # Stirling series; the first omitted term is below 2e-16 for n > 15.
    nn = float(n) * n
    series = 1 / 1680 - 1 / 1188 / nn
    series = 1 / 1260 - series / nn
    series = 1 / 360 - series / nn
    return (1 / 12 - series / nn) / n


def _bd0(x: int, lam: float) -> float:
    """``x log(x/lam) + lam - x`` without cancellation near ``x = lam``."""
    if abs(x - lam) < 0.5 * (x + lam):
        # Series in v = (x-lam)/(x+lam): every term has the same sign.
        v = (x - lam) / (x + lam)
        total, term, j = (x - lam) * v, 2.0 * x * v, 1
        while True:
            term *= v * v
            nxt = total + term / (2 * j + 1)
            if nxt == total:
                return total
            total, j = nxt, j + 1
    return x * math.log(x / lam) + lam - x


def _poisson_logpmf(x: int, lam: float) -> float:
    """``log P(X = x)`` for ``X ~ Poisson(lam)`` (Loader's saddle-point form)."""
    if x == 0:
        return -lam
    return -_stirlerr(x) - _bd0(x, lam) - _HALF_LOG_2PI - 0.5 * math.log(x)


def _poisson_sf(k: int, lam: float) -> float:
    """``P(X > k)`` for ``X ~ Poisson(lam)``, to full relative precision.

    Terms are summed outward from the mode, each tail scaled by its
    largest pmf so that neither underflows: above the mode the upper
    tail directly, below it ``1 - cdf``.
    """
    if k >= int(lam):
        # Upper tail, from k+1 up; successive pmf ratios lam/i < 1.
        i, term, total = k + 1, 1.0, 1.0
        while term > total * 1e-17:
            i += 1
            term *= lam / i
            total += term
        return math.exp(_poisson_logpmf(k + 1, lam)) * total
    # Lower tail, from k down; successive pmf ratios i/lam < 1.
    i, term, total = k, 1.0, 1.0
    while i > 0 and term > total * 1e-17:
        term *= i / lam
        total += term
        i -= 1
    return 1.0 - math.exp(_poisson_logpmf(k, lam)) * total


def predict(keys: int, bins: int) -> BinsPrediction:
    """Poisson-approximation occupancy predictions."""
    if keys < 0 or bins <= 0:
        raise ValueError(f"need keys >= 0 and bins > 0, got {keys}, {bins}")
    load = keys / bins
    # P(bin empty) = (1 - 1/b)^n ~ e^{-n/b}.
    empty = float(np.exp(-load)) if bins > 1 else (1.0 if keys == 0 else 0.0)
    # A key collides iff its bin already holds >= 1 key. Expected
    # colliding insertions = n - b * (1 - e^{-n/b}) (occupied bins
    # each absorbed exactly one collision-free key).
    occupied = bins * (1.0 - empty)
    collisions = max(keys - occupied, 0.0)
    # Max load: smallest m with b * P(Poisson(load) >= m) <= 1
    # (union-bound / first-moment threshold).
    if keys == 0:
        max_load = 0.0
    elif bins == 1:
        max_load = float(keys)
    else:
        m = int(np.ceil(load))
        while bins * _poisson_sf(m - 1, load) > 1.0:
            m += 1
        max_load = float(m)
    return BinsPrediction(
        keys=keys,
        bins=bins,
        load=load,
        expected_empty_fraction=empty,
        expected_collisions=collisions,
        expected_max_load=max_load,
    )


def compare_with_measurement(
    keys: int,
    bins: int,
    *,
    measured_max_depth: int,
    measured_collisions: int | None = None,
    tolerance: float = 2.0,
) -> dict[str, float | bool]:
    """Check measured occupancy against the analytic prediction.

    ``tolerance`` is multiplicative slack on the max-load prediction
    (the union bound is loose by a small constant). Returns the
    prediction and pass/fail flags for reporting.
    """
    prediction = predict(keys, bins)
    max_ok = measured_max_depth <= tolerance * max(prediction.expected_max_load, 1.0)
    out: dict[str, float | bool] = {
        "expected_max_load": prediction.expected_max_load,
        "measured_max_depth": float(measured_max_depth),
        "max_within_tolerance": max_ok,
    }
    if measured_collisions is not None:
        expected = prediction.expected_collisions
        slack = tolerance * max(expected, 1.0)
        out["expected_collisions"] = expected
        out["measured_collisions"] = float(measured_collisions)
        out["collisions_within_tolerance"] = measured_collisions <= slack
    return out
