"""Independent computation of the optimal product approximation.

Quadratic targets have a closed-form answer (Gaussian product with marginal
means equal to the target mean and variances 1/A_ii).  For other targets, a
nonparametric solver represents each marginal as a normalized log-density on a
uniform grid and cycles the coordinate update

    q^i  <-  normalize( exp( -E_{x_-i ~ q^-i} V(..., x, ...) ) )

until the per-coordinate W2 residual between successive marginals drops below
tolerance.  Under affine coupling the expectation is V at the other marginals'
means up to a constant, at any dimension; other potentials take tensor
quadrature over the other grids, up to m = 3.  The converged product serves as
ground truth for the particle dynamics.

A grid density's CDF is the cumulative composite Simpson rule, and its
quantile function is the monotone piecewise cubic Hermite interpolant (PCHIP)
of the nodes against the CDF: weighted-harmonic-mean interior slopes, zero
where the secants change sign, and the three-point end condition (Fritsch &
Carlson, "Monotone piecewise cubic interpolation", SIAM J. Numer. Anal. 1980,
with the end condition of Moler's pchiptx).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, OracleConvergenceError
from .metrics import GaussianMarginal, ReferenceProduct
from .potentials import PerturbedQuadraticPotential, QuadraticPotential
from .reports import decode_f8, encode_f8, read_json, write_atomic

DEFAULT_GRID_SIZE = 1025
_BOUNDARY_TOL = 1e-8
# midpoint quantile levels of the W2 between two grid densities
_W2_LEVELS = 4096
# gradient-norm tolerance and step budget of the minimizer search
_MINIMIZER_TOL = 1e-10
_MINIMIZER_STEPS = 50_000
# quadrature cells handled per vectorized chunk of the tensor pass
_CHUNK_BUDGET = 2_000_000


def _log_sum_exp(a) -> float:
    """log(sum(exp(a))) shifted by the maximum; -inf entries add nothing.

    The maximal entries are taken out of the sum and enter through log1p.
    """
    top = np.max(a)
    at_top = a == top
    terms = np.exp(a - top)
    terms[at_top] = 0.0
    count = np.count_nonzero(at_top)
    return float(np.log1p(terms.sum() / count) + np.log(count) + top)


def _simpson_parts(f1, f2, f3, h21, h32):
    """Simpson integral over [x1, x2] of the parabola through three points."""
    a = h21 / (h21 + h32)
    b = a * (h21 / h32)
    return h21 / 6 * ((3 - a) * f1 + (3 + b + a) * f2 - b * f3)


def _cumulative_simpson(f, x) -> np.ndarray:
    """Integral of the samples f from x[0] to each node (at least 3 nodes).

    Intervals 0, 2, 4, ... take the parabola through their own nodes and the
    next one; intervals 1, 3, 5, ... and always the last one take the parabola
    through the previous node instead, for odd and even node counts alike.
    """
    h = np.diff(x)
    parts = _simpson_parts(f[:-2], f[1:-1], f[2:], h[:-1], h[1:])
    back = _simpson_parts(f[2:], f[1:-1], f[:-2], h[1:], h[:-1])
    parts = np.append(parts, 0.0)
    parts[1::2] = back[::2]
    parts[-1] = back[-1]
    return np.concatenate(([0.0], np.cumsum(parts)))


def _pchip_end_slope(h0, h1, m0, m1):
    """Three-point end slope, zeroed or capped at 3 m0 to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(x, y) -> np.ndarray:
    """PCHIP node slopes of y(x) for strictly ascending x."""
    h = np.diff(x)
    m = np.diff(y) / h
    if m.size == 1:
        return np.array([m[0], m[0]])
    d = np.zeros_like(y)
    interior = (np.sign(m[:-1]) == np.sign(m[1:])) & (m[1:] != 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    # zero secants divide by zero (masked out below) and tiny ones overflow
    # (giving the slope 1 / inf = 0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][interior] = 1.0 / whmean[interior]
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _hermite_cubics(x, y, d) -> np.ndarray:
    """(4, n-1) power-basis coefficients of each interval's Hermite cubic in
    s = t - x[k], highest degree first."""
    h = np.diff(x)
    slope = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2 * slope) / h
    return np.stack((t / h, (slope - d[:-1]) / h - t, d[:-1], y[:-1]))


def _eval_cubics(x, c, t) -> np.ndarray:
    """Piecewise cubic with knots x and coefficients c at t in [x[0], x[-1]]."""
    k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    s = t - x[k]
    s2 = s * s
    # summed by ascending power rather than by Horner's rule: this order
    # reproduces earlier pavi versions' quantiles, and so their references,
    # bit for bit
    return c[3, k] + c[2, k] * s + c[1, k] * s2 + c[0, k] * (s2 * s)


class GridDensity:
    """Normalized probability density on a uniform 1-D grid, kept in log space.

    Its quantile function makes it usable directly as a reference marginal.
    """

    __slots__ = ("nodes", "log_density", "_cdf", "_knots", "_cubics")

    def __init__(self, nodes, log_values):
        nodes = np.asarray(nodes, dtype=float)
        log_values = np.asarray(log_values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 9:
            raise ConfigError("grid needs at least 9 ascending nodes")
        if log_values.shape != nodes.shape:
            raise ConfigError("log-density values must match the grid shape")
        steps = np.diff(nodes)
        if np.any(steps <= 0):
            raise ConfigError("grid nodes must be strictly ascending")
        if np.max(np.abs(steps - steps[0])) > 1e-9 * (nodes[-1] - nodes[0]):
            raise ConfigError("grid nodes must be uniformly spaced")
        if np.any(np.isnan(log_values)) or np.any(log_values == np.inf):
            raise OracleConvergenceError("log-density values must be < +inf and not NaN")
        if np.all(np.isneginf(log_values)):
            raise OracleConvergenceError("all log-density values are -inf on the grid")
        step = float(steps[0])
        w = np.full(nodes.size, step)
        w[0] = w[-1] = 0.5 * step
        log_z = _log_sum_exp(log_values + np.log(w))
        self.nodes = nodes
        self.log_density = log_values - log_z
        self._cdf = None
        self._knots = None
        self._cubics = None
        total = float(np.trapezoid(np.exp(self.log_density), self.nodes))
        if abs(total - 1.0) > 1e-10:
            raise OracleConvergenceError(
                f"grid density failed to normalize (trapezoid mass {total})"
            )

    @property
    def step(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    def density(self) -> np.ndarray:
        return np.exp(self.log_density)

    def boundary_density(self) -> float:
        d = self.log_density
        return float(np.exp(max(d[0], d[-1])))

    def mean(self) -> float:
        return float(np.trapezoid(self.nodes * self.density(), self.nodes))

    def _cdf_values(self) -> np.ndarray:
        if self._cdf is None:
            cdf = _cumulative_simpson(self.density(), self.nodes)
            cdf = np.maximum.accumulate(np.clip(cdf, 0.0, None))
            cdf /= cdf[-1]
            self._cdf = cdf
        return self._cdf

    def quantile(self, u):
        """Monotone quantile function: the PCHIP of the nodes against the CDF.

        Its knots and cubic coefficients are built on the first call and kept.
        """
        if self._knots is None:
            cdf = self._cdf_values()
            # denormal CDF increments in the far tails would overflow the
            # interpolant's slopes; dropping them discards ~1e-12 of u-mass
            keep = np.concatenate(([True], np.diff(cdf) > 1e-12))
            knots, nodes = cdf[keep], self.nodes[keep]
            self._cubics = _hermite_cubics(knots, nodes, _pchip_slopes(knots, nodes))
            self._knots = knots
        knots = self._knots
        # u beyond the last knot lies in the dropped tail mass: it maps to the
        # last kept node rather than off the interpolant
        u = np.clip(np.asarray(u, dtype=float), knots[0], knots[-1])
        out = _eval_cubics(knots, self._cubics, u)
        return np.clip(out, self.nodes[0], self.nodes[-1])

    def w2_to(self, other: "GridDensity") -> float:
        """W2 between two grid densities through their quantile functions."""
        u = (np.arange(_W2_LEVELS) + 0.5) / _W2_LEVELS
        d = self.quantile(u) - other.quantile(u)
        return float(math.sqrt(np.mean(d * d)))


@dataclass
class ResidualReport:
    """Convergence record attached to a solved grid product."""

    sweeps: int
    per_coordinate_w2: list
    log_sup_change: float
    converged: bool
    history: list = field(default_factory=list)
    init_agreement_w2: float | None = None


class GridProduct:
    """Product of per-coordinate grid densities."""

    __slots__ = ("marginals", "residual")

    def __init__(self, marginals, residual=None):
        marginals = list(marginals)
        if not marginals:
            raise ConfigError("grid product needs at least one marginal")
        for d in marginals:
            if not isinstance(d, GridDensity):
                raise ConfigError("grid product marginals must be GridDensity instances")
        self.marginals = marginals
        self.residual = residual

    @property
    def m(self) -> int:
        return len(self.marginals)

    def copy(self) -> "GridProduct":
        return GridProduct(list(self.marginals), self.residual)


def minimizer(pot) -> np.ndarray:
    """Unique minimizer of V by damped gradient descent with step 1/lip."""
    x = np.zeros(pot.m)
    step = 1.0 / pot.lip
    for _ in range(_MINIMIZER_STEPS):
        g = pot.gradient_cols(x[:, None])[:, 0]
        if np.linalg.norm(g) < _MINIMIZER_TOL:
            return x
        x = x - step * g
    raise OracleConvergenceError("minimizer search did not converge")


def coordinate_grids(pot, G=DEFAULT_GRID_SIZE, half_width=None):
    """Per-coordinate uniform grids centered at the minimizer.

    Strong convexity gives sub-Gaussian marginals with variance at most
    1/alpha, so a half width of 8 of those standard deviations keeps the
    truncated mass far below the boundary tolerance.
    """
    G = int(G)
    if G < 9:
        raise ConfigError("grid size must be at least 9 nodes")
    center = minimizer(pot)
    hw = 8.0 / math.sqrt(pot.alpha) if half_width is None else float(half_width)
    return [np.linspace(c - hw, c + hw, G) for c in center]


def initial_grid_product(pot, G=DEFAULT_GRID_SIZE, kind="uniform", half_width=None):
    """Starting point for the fixed-point iteration.

    "uniform" is flat over each grid; "narrow" is a tight Gaussian bump at the
    minimizer (a smoothed point mass, used to cross-check that different
    starts reach the same fixed point).
    """
    grids = coordinate_grids(pot, G, half_width)
    center = minimizer(pot)
    marginals = []
    for i, nodes in enumerate(grids):
        if kind == "uniform":
            logd = np.zeros(nodes.size)
        elif kind == "narrow":
            s = 4.0 * (nodes[1] - nodes[0])
            logd = -0.5 * ((nodes - center[i]) / s) ** 2
        else:
            raise ConfigError(f"unknown init kind {kind!r}")
        marginals.append(GridDensity(nodes, logd))
    return GridProduct(marginals)


def _quadrature_weights(d: GridDensity) -> np.ndarray:
    w = np.full(d.nodes.size, d.step)
    w[0] = w[-1] = 0.5 * d.step
    return w * d.density()


def vbar_on_grid(pot, i, q: GridProduct) -> np.ndarray:
    """Expected potential profile for coordinate i on its grid, up to a constant.

    Under affine coupling this is V with the other coordinates at their
    marginal means (the rest of the expectation is constant in x_i); other
    potentials take tensor trapezoid quadrature over the other grids, m <= 3.
    """
    m = pot.m
    if q.m != m:
        raise ConfigError(f"grid product has {q.m} marginals, potential expects {m}")
    i = int(i)
    if not 0 <= i < m:
        raise ConfigError(f"coordinate index {i} out of range for dimension {m}")
    nodes = q.marginals[i].nodes
    if pot.affine_coupling:
        cols = np.repeat([[d.mean()] for d in q.marginals], nodes.size, axis=1)
        cols[i] = nodes
        return np.asarray(pot.value_cols(cols), dtype=float)
    if m > 3:
        raise ConfigError(
            f"dimension {m} exceeds the tensor-quadrature gate (m <= 3) and the "
            "potential has no affine coupling"
        )
    # context points of the other grids' product, one per column, and their weights
    others = [k for k in range(m) if k != i]
    ctx = np.empty((0, 1))
    w = np.ones(1)
    for k in others:
        d = q.marginals[k]
        ctx = np.vstack([np.repeat(ctx, d.nodes.size, axis=1), np.tile(d.nodes, w.size)])
        w = np.outer(w, _quadrature_weights(d)).ravel()
    P = w.size
    chunk = max(1, _CHUNK_BUDGET // P)
    cols = np.empty((m, min(chunk, nodes.size) * P))
    out = np.empty(nodes.size)
    for start in range(0, nodes.size, chunk):
        sl = slice(start, min(start + chunk, nodes.size))
        n_nodes = sl.stop - sl.start
        c = cols[:, : n_nodes * P]
        c[i] = np.repeat(nodes[sl], P)
        c[others] = np.tile(ctx, n_nodes)
        out[sl] = pot.value_cols(c).reshape(n_nodes, P) @ w
    return out


def apply_transform(pot, i, q: GridProduct) -> GridDensity:
    """Optimal single-coordinate update: normalize exp(-vbar_i) on the grid."""
    vbar = vbar_on_grid(pot, i, q)
    return GridDensity(q.marginals[i].nodes, -vbar)


def fixed_point_solve(
    pot,
    init: GridProduct,
    tol: float = 1e-8,
    max_iter: int = 200,
    damping: float = 1.0,
) -> GridProduct:
    """Cyclic coordinate iteration to the fixed point of the marginal update.

    Sweeps coordinates in order, optionally damping in log space, until every
    per-coordinate W2 residual between successive marginals is below ``tol``;
    a final verification pass re-applies the update at the candidate before
    declaring convergence.  The pass's coordinate-0 update is the next sweep's
    first one, since no marginal changes in between.  Raises if mass reaches a
    grid boundary or the sweep budget runs out.
    """
    if tol <= 0:
        raise ConfigError("tol must be positive")
    if not 0.0 < damping <= 1.0:
        raise ConfigError("damping must lie in (0, 1]")
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    q = init.copy()
    history = []
    # coordinate 0's update at the committed product, from the last
    # verification pass: the next sweep starts from that same product
    first = None
    for sweep in range(1, int(max_iter) + 1):
        max_w2 = 0.0
        max_sup = 0.0
        for i in range(q.m):
            new_i = first if i == 0 and first is not None else apply_transform(pot, i, q)
            if damping < 1.0:
                mixed = (
                    damping * new_i.log_density
                    + (1.0 - damping) * q.marginals[i].log_density
                )
                new_i = GridDensity(new_i.nodes, mixed)
            if new_i.boundary_density() > _BOUNDARY_TOL:
                raise OracleConvergenceError(
                    f"mass reached the boundary of coordinate {i}'s grid "
                    f"(density {new_i.boundary_density():.3e}); widen the grid"
                )
            max_w2 = max(max_w2, new_i.w2_to(q.marginals[i]))
            max_sup = max(
                max_sup, float(np.max(np.abs(new_i.log_density - q.marginals[i].log_density)))
            )
            q.marginals[i] = new_i
        history.append((sweep, max_w2, max_sup))
        # verification pass: residual of re-applying the update at the
        # committed product, measured without committing
        updates = [apply_transform(pot, i, q) for i in range(q.m)]
        resid = [d.w2_to(q.marginals[i]) for i, d in enumerate(updates)]
        if max(resid) < tol:
            q.residual = ResidualReport(
                sweeps=sweep,
                per_coordinate_w2=resid,
                log_sup_change=max_sup,
                converged=True,
                history=history,
            )
            return q
        first = updates[0]
    raise OracleConvergenceError(
        f"fixed-point iteration did not reach tol={tol} in {max_iter} sweeps "
        f"(last residual {history[-1][1]:.3e})",
        history=history,
    )


def gaussian_mfvi_solution(pot) -> ReferenceProduct:
    """Closed-form optimal product approximation for quadratic potentials.

    The stationarity system forces the marginal means onto the target mean and
    the variances onto 1/A_ii.
    """
    if not isinstance(pot, QuadraticPotential) or isinstance(
        pot, PerturbedQuadraticPotential
    ):
        raise ConfigError(
            "closed-form product solution is available only for the quadratic family"
        )
    marginals = [
        GaussianMarginal(pot.mean[i], 1.0 / pot.precision[i, i]) for i in range(pot.m)
    ]
    return ReferenceProduct(marginals, "analytic-gaussian")


def grid_reference(q: GridProduct) -> ReferenceProduct:
    """Wrap a (converged) grid product as a reference."""
    residual = asdict(q.residual) if q.residual is not None else None
    return ReferenceProduct(list(q.marginals), "grid-oracle", residual)


def sample_reference(ref: ReferenceProduct, K, rng) -> np.ndarray:
    """Inverse-CDF sampling from the product reference, coordinates independent."""
    K = int(K)
    if K < 1:
        raise ConfigError("K must be >= 1")
    u = rng.random((ref.m, K))
    np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
    return np.vstack([ref.marginals[i].quantile(u[i]) for i in range(ref.m)])


# serialization ----------------------------------------------------------------

_FORMAT = "pavi-reference-v1"


def save_reference(path, ref: ReferenceProduct) -> None:
    """Write a reference to a JSON document reloadable by :func:`load_reference`."""
    marginals = []
    for mar in ref.marginals:
        if isinstance(mar, GaussianMarginal):
            marginals.append({"type": "gaussian", "mean": mar.mean, "var": mar.var})
        elif isinstance(mar, GridDensity):
            marginals.append(
                {
                    "type": "grid",
                    "lo": float(mar.nodes[0]),
                    "hi": float(mar.nodes[-1]),
                    "count": int(mar.nodes.size),
                    "log_density": encode_f8(mar.log_density),
                }
            )
        else:
            raise ConfigError(f"cannot serialize marginal of type {type(mar).__name__}")
    doc = {
        "format": _FORMAT,
        "provenance": ref.provenance,
        "marginals": marginals,
        "residual": ref.residual,
    }
    write_atomic(path, json.dumps(doc, sort_keys=True).encode())


def _finite_fields(path, entry, *keys):
    values = [float(entry[k]) for k in keys]
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{path} holds non-finite values")
    return values


def load_reference(path) -> ReferenceProduct:
    """Inverse of :func:`save_reference`; a corrupt file raises ConfigError."""
    doc = read_json(path)
    if doc.get("format") != _FORMAT:
        raise ConfigError(f"{path} is not a reference document")
    marginals = []
    try:
        for entry in doc["marginals"]:
            if entry["type"] == "gaussian":
                mean, var = _finite_fields(path, entry, "mean", "var")
                marginals.append(GaussianMarginal(mean, var))
            elif entry["type"] == "grid":
                lo, hi = _finite_fields(path, entry, "lo", "hi")
                count = int(entry["count"])
                logd = decode_f8(entry["log_density"], count, path)
                try:
                    marginals.append(GridDensity(np.linspace(lo, hi, count), logd))
                except ConfigError as err:
                    raise ConfigError(f"{path} holds a malformed grid ({err})") from None
            else:
                raise ConfigError(f"{path} holds an unknown marginal type {entry['type']!r}")
        return ReferenceProduct(marginals, doc["provenance"], doc.get("residual"))
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path} is a malformed reference ({err!r})") from None
