import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

import pavi
from pavi import ConfigError, PerturbedQuadraticPotential, QuadraticPotential
from pavi.potentials import LOGCOSH_THIRD_SUP


@pytest.fixture
def gauss21():
    """Coupled quadratic with eigenvalues 1 and 3 (alpha=1, lip=3)."""
    return QuadraticPotential([[2.0, 1.0], [1.0, 2.0]], [1.0, -1.0])


@pytest.fixture
def gauss21_centered():
    return QuadraticPotential([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0])


@pytest.fixture
def perturbed2():
    """Non-Gaussian target used by the grid oracle criteria."""
    return PerturbedQuadraticPotential([[2.0, 0.5], [0.5, 2.0]], [0.0, 0.0], [1.0, 1.0])


class TanhCoupled(pavi.Potential):
    """V(x) = |x|^2 / 2 + c logcosh(x_1 + ... + x_m), strongly convex.

    Its partials x_i + c tanh(x_1 + ... + x_m) are not affine in the other
    coordinates, so averages over contexts differ from the partial at their
    mean.  The Hessian I + c sech^2(.) 11' has eigenvalues in [1, 1 + c m].
    """

    alpha = 1.0

    def __init__(self, m, c=1.0):
        self.m = m
        self.c = c
        self.lip = 1.0 + c * m
        self.third_bound = c * LOGCOSH_THIRD_SUP

    def partial_cols(self, i, cols):
        cols = np.asarray(cols, dtype=float)
        return cols[i] + self.c * np.tanh(cols.sum(axis=0))

    def to_config(self):
        return {"family": "test-tanh-coupled", "m": self.m, "c": self.c}


def exact_row(pot, X, i, xs, generic=False):
    """Row i of the drift hook at the points xs, averaged over every
    combination of the other rows' atoms of X (the exact algorithm's drift).

    With ``generic`` the base class's average takes it, whatever the family.
    """
    hook = pavi.Potential.partials_over_contexts if generic else type(pot).partials_over_contexts
    xs = np.asarray(xs, dtype=float).ravel()
    points = np.broadcast_to(xs, (1, X.m, xs.size))
    return hook(pot, points, X.values[None], product=True)[0, i]


def grid_variance(d):
    """Trapezoid variance of a GridDensity about its trapezoid mean."""
    dev = d.nodes - d.mean()
    return float(np.trapezoid(dev * dev * d.density(), d.nodes))


def anderson_darling_normal(z):
    """A^2 statistic against a standard normal (all parameters known)."""
    z = np.sort(np.asarray(z, dtype=float))
    n = z.size
    u = np.clip(norm.cdf(z), 1e-300, 1 - 1e-16)
    i = np.arange(1, n + 1)
    return float(-n - np.mean((2 * i - 1) * (np.log(u) + np.log1p(-u[::-1]))))


# asymptotic critical value of A^2 at significance 1e-3, simple hypothesis
AD_CRIT_1E3 = 6.0


BRUTEFORCE_MAX = 8


def w2_1d_bruteforce(a, b) -> float:
    """W2 on the line as the minimum over all permutation couplings.

    The reference oracle for the sorted coupling, limited to BRUTEFORCE_MAX
    atoms: it enumerates all n! matchings.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise ConfigError(f"supports must have equal size, got {a.size} and {b.size}")
    if a.size > BRUTEFORCE_MAX:
        raise ConfigError(
            f"brute-force matching is limited to {BRUTEFORCE_MAX} atoms, got {a.size}"
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
