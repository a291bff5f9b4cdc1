"""Distribution analysis of DHT workloads (§III of the paper).

The paper observes that node responsibilities in a hash-keyed ring are
"better represented by a Zipfian distribution" than a uniform one.  The
precise mathematical statement is that with n uniformly placed nodes the
arc lengths (hence expected workloads) follow an exponential law with
mean 1/n of the ring — which yields exactly the paper's Table I signature
(median ≈ ln 2 × mean, σ ≈ mean).  This module provides the fits and
goodness tests to verify both characterizations against simulated data.

SciPy is optional: the exponential fit and KS statistic are implemented
directly; when SciPy is present its p-values are used as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.metrics.stats_tests import scipy_stats

__all__ = [
    "ExponentialFit",
    "fit_exponential",
    "ks_exponential",
    "zipf_tail_exponent",
    "expected_median_ratio",
]

#: median / mean of an exponential distribution — the Table I signature
EXPECTED_MEDIAN_RATIO = math.log(2.0)


def expected_median_ratio() -> float:
    """Theoretical median/mean workload ratio for hash-placed nodes.

    Table I's 1000-node / 10⁶-task row reports a median of 692.3 with a
    mean of 1000 — a ratio of 0.6923 ≈ ln 2 = 0.6931, confirming the
    exponential model.
    """
    return EXPECTED_MEDIAN_RATIO


@dataclass(frozen=True)
class ExponentialFit:
    """Maximum-likelihood exponential fit and its KS distance."""

    scale: float  # = fitted mean
    ks_statistic: float
    p_value: float | None  # None when SciPy is unavailable
    n: int


def fit_exponential(samples: np.ndarray) -> ExponentialFit:
    """Fit Exp(scale) to positive samples and measure KS goodness.

    Zero-valued samples (finished nodes) are excluded — the exponential
    model describes *responsibility*, not residual work.
    """
    x = np.asarray(samples, dtype=np.float64)
    x = x[x > 0]
    if x.size == 0:
        return ExponentialFit(scale=0.0, ks_statistic=1.0, p_value=None, n=0)
    scale = float(x.mean())
    stat, p = ks_exponential(x, scale)
    return ExponentialFit(scale=scale, ks_statistic=stat, p_value=p, n=int(x.size))


def ks_exponential(
    samples: np.ndarray, scale: float
) -> tuple[float, float | None]:
    """Kolmogorov–Smirnov distance of samples against Exp(scale)."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n == 0 or scale <= 0:
        return 1.0, None
    cdf = 1.0 - np.exp(-x / scale)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    stat = float(np.max(np.maximum(ecdf_hi - cdf, cdf - ecdf_lo)))
    stats = scipy_stats()
    if stats is not None:
        return stat, float(stats.kstwo.sf(stat, n))
    return stat, None


def zipf_tail_exponent(samples: np.ndarray, tail_fraction: float = 0.2) -> float:
    """Log–log slope of the rank–size tail (the paper's "Zipfian" view).

    Sorting workloads descending and regressing log(load) on log(rank)
    over the heaviest ``tail_fraction`` of nodes gives the Zipf-like tail
    exponent; an exponential workload produces a *concave* rank–size
    curve, so the local tail slope is how the "few nodes hold the bulk of
    the work" claim is quantified.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))[::-1]
    x = x[x > 0]
    k = max(2, int(x.size * tail_fraction))
    x = x[:k]
    if x.size < 2:
        return 0.0
    ranks = np.arange(1, x.size + 1, dtype=np.float64)
    slope, _ = np.polyfit(np.log(ranks), np.log(x), 1)
    return float(slope)
