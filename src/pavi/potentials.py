"""Strongly log-concave target potentials with analytic convexity constants.

A potential evaluates ``V``, one partial derivative, or the full gradient on a
batch of points given as the columns of an ``(m, K)`` array, and the drift,
every partial averaged over contexts (``partials_over_contexts``), its one
hook for both algorithms.  It carries the constants ``alpha <= lip``
sandwiching its Hessian spectrum plus a bound ``third_bound`` on
``|d^3 V / dx_i^3|``.  The built-in families keep all three constants exact
so step-size guards downstream can trust them; a ``check`` command
re-validates them by sampling.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import ConfigError
from .reports import finite_number, number_array

# sup_t |d^3/dt^3 log(cosh t)|; the exact supremum is 4/(3*sqrt(3)) ~= 0.76980
# and the declared bound rounds it up.
LOGCOSH_THIRD_SUP = 0.7699
# the most atom combinations an exhaustive average over contexts takes
_EXHAUSTIVE_MAX = 1_000_000


def logcosh(t):
    """log(cosh(t)) computed without overflow for large |t|."""
    t = np.asarray(t, dtype=float)
    return np.abs(t) + np.log1p(np.exp(-2.0 * np.abs(t))) - np.log(2.0)


def _as_vector(x, m, what):
    x = np.asarray(x, dtype=float)
    if x.shape != (m,):
        raise ConfigError(f"{what} must be a length-{m} vector, got shape {x.shape}")
    return x


def stochastic_grad_at(pot, z, i, xs) -> np.ndarray:
    """Average of the i-th partial over the context columns of z, at many points.

    Each point replaces coordinate i of every column of ``z`` (shape (m, B))
    and the B partials are averaged.  The same context columns serve every
    point, matching how one iteration reuses its contexts across particles.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] != pot.m:
        raise ConfigError(f"context array must have shape ({pot.m}, B), got {z.shape}")
    m, B = z.shape
    i = int(i)
    if not 0 <= i < m:
        raise ConfigError(f"coordinate index {i} out of range for dimension {m}")
    xs = np.asarray(xs, dtype=float).ravel()
    K = xs.size
    cols = np.broadcast_to(z[:, :, None], (m, B, K)).reshape(m, B * K).copy()
    cols[i] = np.tile(xs, B)
    return np.asarray(pot.partial_cols(i, cols), dtype=float).reshape(B, K).mean(axis=0)


class Potential:
    """Base class for potentials with ``alpha I <= Hess V <= lip I``."""

    m: int
    alpha: float
    lip: float
    third_bound: float
    # True when a config's ``claimed`` section replaced the derived constants
    claimed = False

    def _check_constants(self):
        if not (0.0 < self.alpha <= self.lip):
            raise ConfigError(
                "constants must satisfy 0 < alpha <= lip, "
                f"got alpha={self.alpha}, lip={self.lip}"
            )
        if self.third_bound < 0.0:
            raise ConfigError("third_bound must be nonnegative")

    # batch interface; ``cols`` has shape (m, K), one point per column -------
    def value_cols(self, cols) -> np.ndarray:
        raise NotImplementedError

    def partial_cols(self, i, cols) -> np.ndarray:
        raise NotImplementedError

    def gradient_cols(self, cols) -> np.ndarray:
        raise NotImplementedError

    def partials_over_contexts(self, points, contexts, product=False, out=None) -> np.ndarray:
        """The drift: partial_i V at ``points[r, i]``, averaged over contexts.

        ``points`` has shape (R, m, K) and ``contexts`` (R, m, B).  The average
        is over the B columns of ``contexts[r]`` (the stochastic algorithm) or,
        with ``product``, over every combination of the other rows' atoms (the
        exact algorithm).  This generic average takes each row through
        ``stochastic_grad_at``, at most ``_EXHAUSTIVE_MAX`` combinations under
        ``product``; a family whose partials are affine in the other
        coordinates overrides it with the partial at the mean column of
        ``contexts[r]``, which both averages equal.  Each replication r gets
        the result for ``points[r]`` and ``contexts[r]`` alone, bit for bit.
        Given an array ``out`` of the points' shape that shares no memory with
        them, the result is written there and ``out`` is returned.
        """
        out = np.empty(np.shape(points)) if out is None else out
        for r, i in np.ndindex(contexts.shape[:2]):
            xs, z = points[r, i], contexts[r]
            m, B = z.shape
            if product:
                combos = B ** (m - 1)
                if combos > _EXHAUSTIVE_MAX:
                    raise ConfigError(
                        f"exhaustive averaging needs {combos} combinations "
                        f"(> {_EXHAUSTIVE_MAX}); use the stochastic algorithm instead"
                    )
                others = [z[k] for k in range(m) if k != i]
                grids = np.array([g.ravel() for g in np.meshgrid(*others, indexing="ij")])
                # row i of the contexts is a placeholder that stochastic_grad_at overwrites
                z = np.insert(grids.reshape(m - 1, combos), i, 0.0, axis=0)
            # about _EXHAUSTIVE_MAX partials per stochastic_grad_at call
            chunk = max(1, _EXHAUSTIVE_MAX // z.shape[1])
            for s in range(0, xs.size, chunk):
                out[r, i, s : s + chunk] = stochastic_grad_at(self, z, i, xs[s : s + chunk])
        return out

    # True only when every partial_i V is affine in the other coordinates, so
    # V is one-coordinate terms plus bilinear cross terms: its expectation
    # over the other coordinates is then V at their means up to a constant,
    # which the oracle's ``vbar_on_grid`` reads this flag for
    affine_coupling = False

    def to_config(self) -> dict:
        raise NotImplementedError


class QuadraticPotential(Potential):
    """V(x) = 0.5 (x - mean)' A (x - mean) for symmetric positive definite A.

    alpha and lip are the extreme eigenvalues of A; third derivatives vanish.
    The optimal product approximation of exp(-V) is the Gaussian product with
    marginal means ``mean`` and variances ``1 / A_ii``.
    """

    family = "quadratic"

    def __init__(self, precision, mean=None):
        A = np.asarray(precision, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
            raise ConfigError(
                f"precision matrix must be square and non-empty, got shape {A.shape}"
            )
        if not np.all(np.isfinite(A)):
            raise ConfigError("precision matrix must be finite")
        if np.max(np.abs(A - A.T)) > 1e-12:
            raise ConfigError("precision matrix must be symmetric (within 1e-12)")
        A = 0.5 * (A + A.T)
        eig = np.linalg.eigvalsh(A)
        if eig[0] <= 0.0:
            raise ConfigError(
                f"precision matrix must be positive definite, smallest eigenvalue {eig[0]}"
            )
        m = A.shape[0]
        self.precision = A
        self.mean = (
            np.zeros(m) if mean is None else _as_vector(mean, m, "mean").copy()
        )
        self.m = m
        self.alpha = float(eig[0])
        self.lip = float(eig[-1])
        self.third_bound = 0.0
        self._check_constants()

    def value_cols(self, cols):
        d = np.asarray(cols, dtype=float) - self.mean[:, None]
        return 0.5 * np.einsum("ik,ik->k", d, self.precision @ d)

    def partial_cols(self, i, cols):
        d = np.asarray(cols, dtype=float) - self.mean[:, None]
        return self.precision[i] @ d

    def gradient_cols(self, cols):
        d = np.asarray(cols, dtype=float) - self.mean[:, None]
        return self.precision @ d

    def partials_over_contexts(self, points, contexts, product=False, out=None):
        # partial_i V is affine in the other coordinates, so either average is
        # A[i] @ (c - mean) at the mean column c with x_i in place of c_i, for
        # every row at once: diag(A) * (points - c) + shift, each operation
        # written into out
        values = np.asarray(points, dtype=float)
        c = np.asarray(contexts, dtype=float).mean(axis=-1)
        shift = c - self.mean
        # one matrix-vector product per context, the product a lone context
        # takes, so every replication keeps its bits
        for row in shift.reshape(-1, self.m):
            row[:] = self.precision @ row
        out = np.subtract(values, c[..., None], out=out)
        np.multiply(np.diag(self.precision)[:, None], out, out=out)
        np.add(out, shift[..., None], out=out)
        return out

    # partial_i V = A[i] @ (x - mean); the perturbed family's logcosh bump
    # depends on x_i alone, so it keeps the coupling affine
    affine_coupling = True

    def to_config(self):
        doc = {
            "family": self.family,
            "precision": self.precision.tolist(),
            "mean": self.mean.tolist(),
        }
        if self.claimed:
            doc["claimed"] = {
                "alpha": self.alpha,
                "lip": self.lip,
                "third_bound": self.third_bound,
            }
        return doc


class PerturbedQuadraticPotential(QuadraticPotential):
    """Quadratic potential plus per-coordinate logcosh bumps.

    V(x) = 0.5 (x - mean)' A (x - mean) + sum_i c_i logcosh(x_i) with c_i >= 0.
    Still strongly convex with alpha = lambda_min(A); the logcosh second
    derivative lies in (0, 1], so lip = lambda_max(A) + max_i c_i.  The optimal
    product approximation of exp(-V) is not Gaussian, which is what the grid
    oracle is for.
    """

    family = "perturbed_quadratic"

    def __init__(self, precision, mean=None, weights=None):
        super().__init__(precision, mean)
        if weights is None:
            raise ConfigError("perturbed quadratic potential requires weights")
        c = _as_vector(weights, self.m, "weights").copy()
        if np.any(c < 0.0):
            raise ConfigError("weights must be nonnegative")
        self.weights = c
        self.lip = float(self.lip + c.max())
        self.third_bound = float(c.max() * LOGCOSH_THIRD_SUP)
        self._check_constants()

    def value_cols(self, cols):
        cols = np.asarray(cols, dtype=float)
        return super().value_cols(cols) + self.weights @ logcosh(cols)

    def partial_cols(self, i, cols):
        cols = np.asarray(cols, dtype=float)
        return super().partial_cols(i, cols) + self.weights[i] * np.tanh(cols[i])

    def gradient_cols(self, cols):
        cols = np.asarray(cols, dtype=float)
        return super().gradient_cols(cols) + self.weights[:, None] * np.tanh(cols)

    def partials_over_contexts(self, points, contexts, product=False, out=None):
        values = np.asarray(points, dtype=float)
        out = super().partials_over_contexts(values, contexts, product, out)
        # the bump one coordinate at a time, so the only temporary holds one
        # row per replication
        bump = np.empty(values.shape[:-2] + values.shape[-1:])
        for i, w in enumerate(self.weights):
            np.tanh(values[..., i, :], out=bump)
            np.multiply(w, bump, out=bump)
            np.add(out[..., i, :], bump, out=out[..., i, :])
        return out

    def to_config(self):
        doc = super().to_config()
        doc["weights"] = self.weights.tolist()
        return doc


def potential_from_config(doc) -> Potential:
    """Build a potential from a config mapping.

    Expected keys: ``family`` (quadratic | perturbed_quadratic), ``precision``
    (nested rows or a flat row-major list), optional ``mean``, ``weights`` for
    the perturbed family, and an optional ``claimed`` section overriding the
    declared constants (validated by the ``check`` command).  A key the family
    does not read, in the mapping or in ``claimed``, is a ConfigError naming it.
    """
    if not isinstance(doc, dict):
        raise ConfigError("potential config must be a mapping")
    # each key is popped where it is read; what remains was read by no one
    unread = dict(doc)
    try:
        family = unread.pop("family")
        raw = unread.pop("precision")
    except KeyError as missing:
        raise ConfigError(f"potential config missing key {missing}") from None
    A = number_array("potential.precision", raw)
    if np.ndim(A) == 1:
        m = int(round(A.size ** 0.5))
        if m * m != A.size:
            raise ConfigError(
                f"flat precision list has length {A.size}, not a perfect square"
            )
        A = A.reshape(m, m)
    mean = number_array("potential.mean", unread.pop("mean", None))
    if family == "quadratic":
        pot = QuadraticPotential(A, mean)
    elif family == "perturbed_quadratic":
        weights = number_array("potential.weights", unread.pop("weights", None))
        pot = PerturbedQuadraticPotential(A, mean, weights)
    else:
        raise ConfigError(f"unknown potential family {family!r}")
    claimed = unread.pop("claimed", None)
    if unread:
        raise ConfigError(f"potential.{next(iter(unread))} is not read by the {family} family")
    if not isinstance(claimed, (dict, type(None))):
        raise ConfigError(f"potential.claimed must be a mapping, got {claimed!r}")
    if claimed:
        unread = dict(claimed)
        for name in ("alpha", "lip", "third_bound"):
            value = unread.pop(name, None)
            if value is not None:
                setattr(pot, name, float(finite_number(f"potential.claimed.{name}", value)))
        if unread:
            raise ConfigError(f"potential.claimed.{next(iter(unread))} is not a claimed constant")
        pot.claimed = True
        pot._check_constants()
    return pot


def potential_fingerprint(pot) -> str:
    """Stable hex digest of the potential's canonical config."""
    payload = json.dumps(pot.to_config(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
