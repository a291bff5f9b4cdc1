"""Statistical comparison of strategy runtimes.

The paper reports averages of 100 trials without uncertainty; this
module adds the missing rigor: confidence intervals on mean runtime
factors and Welch's t-test for "strategy A beats strategy B" claims.
SciPy provides exact t quantiles when available; a normal approximation
(adequate at the paper's 100 trials) is used otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["mean_ci", "welch_t", "WelchResult", "compare_factors"]


def scipy_stats() -> Any:
    """``scipy.stats``, imported on first use; ``None`` without SciPy.

    Deferred so that importing :mod:`repro` (every CLI call, serve node
    and fabric worker) does not pay SciPy's ~70 MB and ~0.8 s.
    """
    try:
        from scipy import stats
    except ImportError:  # pragma: no cover
        return None
    return stats


def _t_quantile(p: float, df: float) -> float:
    """Two-sided t quantile; normal approximation without SciPy."""
    stats = scipy_stats()
    if stats is not None:
        return float(stats.t.ppf(p, df))
    # Cornish-Fisher style expansion around the normal quantile
    z = math.sqrt(2) * _erfinv(2 * p - 1)
    g1 = (z**3 + z) / 4
    g2 = (5 * z**5 + 16 * z**3 + 3 * z) / 96
    return z + g1 / df + g2 / df**2


def _erfinv(y: float) -> float:
    """Inverse error function (Winitzki's approximation, |err|<2e-3)."""
    a = 0.147
    ln_term = math.log(1 - y * y)
    first = 2 / (math.pi * a) + ln_term / 2
    return math.copysign(
        math.sqrt(math.sqrt(first * first - ln_term / a) - first), y
    )


def mean_ci(
    samples: np.ndarray, confidence: float = 0.95
) -> tuple[float, float, float]:
    """(mean, lower, upper) confidence interval for the mean."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n == 0:
        raise ValueError("no samples")
    mean = float(x.mean())
    if n == 1:
        return mean, mean, mean
    sem = float(x.std(ddof=1)) / math.sqrt(n)
    t = _t_quantile(0.5 + confidence / 2, n - 1)
    return mean, mean - t * sem, mean + t * sem


@dataclass(frozen=True)
class WelchResult:
    """Welch's unequal-variance t-test between two samples."""

    t_statistic: float
    df: float
    p_value: float | None  # two-sided; None without SciPy
    mean_difference: float

    @property
    def significant(self) -> bool:
        """|t| past the ~1.96 two-sided 5% threshold (df-adjusted when
        SciPy gives a p-value)."""
        if self.p_value is not None:
            return self.p_value < 0.05
        return abs(self.t_statistic) > 2.0


def welch_t(a: np.ndarray, b: np.ndarray) -> WelchResult:
    """Welch's t-test for mean(a) != mean(b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least 2 samples per group")
    va = a.var(ddof=1) / a.size
    vb = b.var(ddof=1) / b.size
    denom = math.sqrt(va + vb)
    if denom == 0:
        t_stat = 0.0 if a.mean() == b.mean() else math.inf
        df = float(a.size + b.size - 2)
    else:
        t_stat = float((a.mean() - b.mean()) / denom)
        df = float(
            (va + vb) ** 2
            / (
                va**2 / (a.size - 1)
                + vb**2 / (b.size - 1)
            )
        )
    p = None
    stats = scipy_stats() if math.isfinite(t_stat) else None
    if stats is not None:
        p = float(2 * stats.t.sf(abs(t_stat), df))
    return WelchResult(
        t_statistic=t_stat,
        df=df,
        p_value=p,
        mean_difference=float(a.mean() - b.mean()),
    )


def compare_factors(
    factors_a: np.ndarray, factors_b: np.ndarray
) -> dict:
    """Full comparison report between two strategies' trial factors."""
    mean_a, lo_a, hi_a = mean_ci(factors_a)
    mean_b, lo_b, hi_b = mean_ci(factors_b)
    test = welch_t(factors_a, factors_b)
    return {
        "mean_a": mean_a,
        "ci_a": (lo_a, hi_a),
        "mean_b": mean_b,
        "ci_b": (lo_b, hi_b),
        "difference": test.mean_difference,
        "t": test.t_statistic,
        "p_value": test.p_value,
        "significant": test.significant,
    }
