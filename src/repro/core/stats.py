"""Statistical rigor for system comparisons.

The paper's core complaint about Graphalytics is single-trial
methodology ("Just one run per experiment is performed"); EPG* collects
32-point distributions.  This module supplies the inferential layer on
top of those distributions:

* bootstrap confidence intervals for medians/means;
* the Mann-Whitney U test (rank-sum) for "is system A faster than
  system B?" without normality assumptions -- runtimes are heavy-tailed
  (CPU spikes), so t-tests would be wrong;
* Cliff's delta effect size, so "significant" can be separated from
  "large";
* a :func:`compare_systems` verdict combining all three.

Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.records import Record, record_values
from repro.errors import ConfigError

__all__ = ["bootstrap_ci", "mann_whitney_u", "cliffs_delta",
           "ComparisonVerdict", "compare_systems"]


def bootstrap_ci(values, statistic=np.median, n_resamples: int = 2000,
                 confidence: float = 0.95, seed: int = 0
                 ) -> tuple[float, float]:
    """Percentile bootstrap CI for ``statistic`` of ``values``.

    ``statistic`` may be any callable of one 1-D sample; vectorized
    reducers taking an ``axis`` keyword (``np.median``, ``np.mean``)
    evaluate all resamples in one call, anything else is applied
    row-wise.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ConfigError("cannot bootstrap an empty sample")
    if n_resamples < 1:
        raise ConfigError(f"n_resamples must be >= 1, got {n_resamples}")
    if not 0 < confidence < 1:
        raise ConfigError("confidence must be in (0, 1)")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    resampled = arr[idx]
    try:
        stats = np.asarray(statistic(resampled, axis=1),
                           dtype=np.float64)
        if stats.shape != (n_resamples,):
            raise TypeError("statistic is not a per-row reducer")
    except TypeError:
        stats = np.asarray([float(statistic(row)) for row in resampled])
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.percentile(stats, [100 * alpha, 100 * (1 - alpha)])
    return float(lo), float(hi)


def mann_whitney_u(a, b) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test via the normal approximation.

    Returns ``(U, p_value)``.  Suitable for the n=32 samples EPG*
    produces; ties are handled with the midrank correction.
    """
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ConfigError("both samples must be non-empty")
    n1, n2 = a.size, b.size
    combined = np.concatenate([a, b])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(combined.size, dtype=np.float64)
    # Midranks for ties.
    sorted_vals = combined[order]
    i = 0
    while i < sorted_vals.size:
        j = i
        while j + 1 < sorted_vals.size and \
                sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    r1 = ranks[:n1].sum()
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    # Tie correction for the variance.
    _, counts = np.unique(combined, return_counts=True)
    tie_term = float((counts ** 3 - counts).sum())
    n = n1 + n2
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1))) \
        if n > 1 else 0.0
    if sigma2 <= 0:
        return float(u1), 1.0
    z = (u1 - mu) / math.sqrt(sigma2)
    # Two-sided p from the standard normal.
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return float(u1), float(min(max(p, 0.0), 1.0))


def cliffs_delta(a, b) -> float:
    """Cliff's delta in [-1, 1]: P(a > b) - P(a < b).

    Negative delta means sample ``a`` is stochastically *smaller*
    (faster, for runtimes).
    """
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ConfigError("both samples must be non-empty")
    diff = a[:, None] - b[None, :]
    return float((np.sign(diff)).mean())


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of one pairwise system comparison."""

    system_a: str
    system_b: str
    algorithm: str
    median_a: float
    median_b: float
    ci_a: tuple[float, float]
    ci_b: tuple[float, float]
    p_value: float
    delta: float
    n_a: int
    n_b: int

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05

    @property
    def faster(self) -> str | None:
        """Which system is credibly faster, or None if inconclusive."""
        if not self.significant:
            return None
        return self.system_a if self.median_a < self.median_b \
            else self.system_b

    @property
    def speedup(self) -> float:
        """Median ratio slower/faster (>= 1)."""
        lo, hi = sorted((self.median_a, self.median_b))
        return hi / lo if lo > 0 else math.inf

    def summary(self) -> str:
        if self.faster is None:
            return (f"{self.system_a} vs {self.system_b} on "
                    f"{self.algorithm}: inconclusive "
                    f"(p={self.p_value:.3f})")
        return (f"{self.faster} is {self.speedup:.2f}x faster on "
                f"{self.algorithm} (p={self.p_value:.2g}, "
                f"delta={self.delta:+.2f}, "
                f"n={self.n_a}+{self.n_b})")


def compare_systems(records: list[Record], system_a: str, system_b: str,
                    algorithm: str, dataset: str | None = None,
                    threads: int | None = None,
                    seed: int = 0) -> ComparisonVerdict:
    """Pairwise comparison of kernel times from a parsed record set."""
    def _times(system):
        return np.asarray(record_values(
            records, system, algorithm, "time", dataset, threads,
            label=f"{system}/{algorithm}"))

    a = _times(system_a)
    b = _times(system_b)
    _, p = mann_whitney_u(a, b)
    return ComparisonVerdict(
        system_a=system_a, system_b=system_b, algorithm=algorithm,
        median_a=float(np.median(a)), median_b=float(np.median(b)),
        ci_a=bootstrap_ci(a, seed=seed),
        ci_b=bootstrap_ci(b, seed=seed + 1),
        p_value=p, delta=cliffs_delta(a, b),
        n_a=int(a.size), n_b=int(b.size))
