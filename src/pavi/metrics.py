"""Wasserstein-2 distances for product empirical measures and references.

One-dimensional distances between equal-size empirical measures use the
sorted (order-statistics) coupling, which is optimal on the line.  Distances
between product measures combine the per-coordinate values in quadrature,
summed in ascending coordinate order so the arithmetic is reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import ReferenceQuantileError, ScaleError, UsageError
from .particles import ParticleArray

_BRUTEFORCE_MAX = 8


def w2_1d_empirical(a, b) -> float:
    """W2 between two equal-size empirical measures on the line."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise UsageError(f"supports must have equal size, got {a.size} and {b.size}")
    if a.size == 0:
        raise UsageError("empirical measures need at least one atom")
    d = np.sort(a) - np.sort(b)
    return float(math.sqrt(np.mean(d * d)))


def w2_1d_bruteforce(a, b) -> float:
    """Minimum over all permutation couplings; reference oracle for small N."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise UsageError(f"supports must have equal size, got {a.size} and {b.size}")
    if a.size > _BRUTEFORCE_MAX:
        raise ScaleError(
            f"brute-force matching is limited to {_BRUTEFORCE_MAX} atoms, got {a.size}"
        )
    n = a.size
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = 0.0
        for j, pj in enumerate(perm):
            diff = a[pj] - b[j]
            cost += diff * diff
        best = min(best, cost)
    return math.sqrt(best / n)


def w2_product_empirical(X: ParticleArray, Y: ParticleArray) -> float:
    """W2 between two product empirical measures (additive across coordinates)."""
    if X.m != Y.m or X.N != Y.N:
        raise UsageError(
            f"shape mismatch: ({X.m}, {X.N}) vs ({Y.m}, {Y.N})"
        )
    total = 0.0
    for i in range(X.m):
        total += w2_1d_empirical(X.values[i], Y.values[i]) ** 2
    return math.sqrt(total)


class GaussianMarginal:
    """Gaussian reference marginal; var = 0 degenerates to a point mass."""

    __slots__ = ("mean", "var")

    def __init__(self, mean, var):
        if var < 0.0:
            raise UsageError(f"variance must be nonnegative, got {var}")
        self.mean = float(mean)
        self.var = float(var)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if self.var == 0.0:
            return np.full_like(u, self.mean)
        return self.mean + math.sqrt(self.var) * ndtri(u)


@dataclass
class ReferenceProduct:
    """Product reference with per-coordinate quantile functions.

    ``provenance`` records where the marginals came from ("analytic-gaussian"
    or "grid-oracle").  Quantile tables are cached per atom count since the
    run loop queries the same midpoints repeatedly.
    """

    marginals: list
    provenance: str
    residual: dict | None = None
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.marginals)

    def quantile_table(self, N: int) -> np.ndarray:
        N = int(N)
        if N not in self._tables:
            u = (np.arange(N) + 0.5) / N
            table = np.vstack([mar.quantile(u) for mar in self.marginals])
            if not np.all(np.isfinite(table)):
                raise ReferenceQuantileError(
                    "reference quantiles are non-finite at interior probabilities"
                )
            self._tables[N] = table
        return self._tables[N]


def w2_reference_profile(X: ParticleArray, ref: ReferenceProduct):
    """Per-coordinate W2 to the reference plus the quadrature total."""
    if X.m != ref.m:
        raise UsageError(f"dimension mismatch: particles m={X.m}, reference m={ref.m}")
    table = ref.quantile_table(X.N)
    per = np.empty(X.m)
    for i in range(X.m):
        d = np.sort(X.values[i]) - table[i]
        per[i] = math.sqrt(np.mean(d * d))
    return per, float(math.sqrt(np.sum(per * per)))


@dataclass(frozen=True)
class GradMoments:
    mean_grad_norm: float
    mean_sq_grad: float
    coordinate_variances: np.ndarray


def grad_moment_check(pot, samples) -> GradMoments:
    """Moment diagnostics of the gradient under a candidate solution.

    For samples from the true optimal product measure the gradient has mean
    zero, mean squared norm at most m lip^2 / alpha, and every coordinate
    variance at most 1 / alpha.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] != pot.m:
        raise UsageError(
            f"samples must have shape ({pot.m}, K), got {samples.shape}"
        )
    grads = pot.gradient_cols(samples)
    mean_grad = grads.mean(axis=1)
    return GradMoments(
        mean_grad_norm=float(np.linalg.norm(mean_grad)),
        mean_sq_grad=float(np.mean(np.sum(grads * grads, axis=0))),
        coordinate_variances=samples.var(axis=1, ddof=1),
    )
