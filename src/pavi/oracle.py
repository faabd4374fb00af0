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

A grid is checked once per coordinate and holds what its densities share.  A
grid density's CDF is the cumulative composite Simpson rule, and its quantile
function is the monotone piecewise cubic Hermite interpolant (PCHIP) of the
nodes against the CDF (Fritsch & Carlson, "Monotone piecewise cubic
interpolation", SIAM J. Numer. Anal. 1980, with the three-point end condition
of Moler's pchiptx).  Both axes strictly ascend, so every secant is positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, OracleConvergenceError
from .metrics import GaussianMarginal, ReferenceProduct
from .potentials import PerturbedQuadraticPotential, QuadraticPotential
from .reports import as_integer, decode_f8, encode_f8, read_json, write_atomic

DEFAULT_GRID_SIZE = 1025
_BOUNDARY_TOL = 1e-8
# midpoint quantile levels of the W2 between two grid densities
_W2_LEVELS = 4096
_W2_U = (np.arange(_W2_LEVELS) + 0.5) / _W2_LEVELS
# gradient-norm tolerance and step budget of the minimizer search
_MINIMIZER_TOL = 1e-10
_MINIMIZER_STEPS = 50_000
# quadrature cells handled per vectorized chunk of the tensor pass
_CHUNK_BUDGET = 2_000_000


def _log_sum_exp(a) -> float:
    """log(sum(exp(a))) shifted by the maximum; -inf entries add nothing.

    The maximal entries are taken out of the sum and enter through log1p.
    """
    top = np.maximum.reduce(a)
    at_top = a == top
    terms = np.exp(a - top)
    terms[at_top] = 0.0
    count = np.count_nonzero(at_top)
    return float(np.log1p(np.add.reduce(terms) / count) + np.log(count) + top)


def _trapezoid(h, y) -> float:
    """np.trapezoid(y, x) for the node differences h of x."""
    return float(np.add.reduce(h * (y[1:] + y[:-1]) / 2.0))


class _Grid:
    """Uniform nodes, checked once: their differences ``h``, trapezoid
    weights and log weights, and the weights of the cumulative Simpson rule.

    Simpson interval k integrates the parabola through nodes k, k+1, k+2 for
    k = 0, 2, 4, ..., and through k+1, k, k-1 for odd k and always the last
    interval: h[k] / 6 * ((3 - a) f1 + (3 + b + a) f2 - b f3), with
    a = h[k] / (h[k] + h32), b = a h[k] / h32 and h32 the other interval's width.
    """

    __slots__ = ("nodes", "step", "h", "weights", "log_weights",
                 "simpson_idx", "simpson_w", "simpson_c")

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 9:
            raise ConfigError("grid needs at least 9 ascending nodes")
        h = nodes[1:] - nodes[:-1]
        if np.any(h <= 0):
            raise ConfigError("grid nodes must be strictly ascending")
        if np.max(np.abs(h - h[0])) > 1e-9 * (nodes[-1] - nodes[0]):
            raise ConfigError("grid nodes must be uniformly spaced")
        self.nodes, self.step, self.h = nodes, float(h[0]), h
        self.weights = np.full(nodes.size, self.step)
        self.weights[0] = self.weights[-1] = 0.5 * self.step
        self.log_weights = np.log(self.weights)
        k = np.arange(h.size)
        back = (k % 2 == 1) | (k == h.size - 1)
        self.simpson_idx = np.where(back, [k + 1, k, k - 1], [k, k + 1, k + 2])
        h32 = h[np.where(back, k - 1, k + 1)]
        a = h / (h + h32)
        b = a * (h / h32)
        self.simpson_w = np.stack((3 - a, 3 + b + a, -b))
        self.simpson_c = h / 6


def _cumulative_simpson(f, grid: _Grid) -> np.ndarray:
    """Integral of the samples f on the grid from its first node to each node."""
    parts = f[grid.simpson_idx]
    parts *= grid.simpson_w
    out = parts[0]
    out += parts[1]
    out += parts[2]
    out *= grid.simpson_c
    cdf = np.zeros(f.size)
    out.cumsum(out=cdf[1:])
    return cdf


def _pchip_cubics(x, y) -> np.ndarray:
    """The PCHIP of y(x), for strictly ascending x and y (at least 2 knots),
    as a (5, n-1) block: each interval's power-basis coefficients in
    s = t - x[k], highest degree first, then x[k]."""
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    d = m[:1].repeat(y.size)  # with two knots, both slopes are the one secant
    if m.size > 1:
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        np.divide(1.0, (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2), out=d[1:-1])
        for j, k in ((0, 1), (-1, -2)):  # three-point ends, zeroed unless positive
            e = ((2 * h[j] + h[k]) * m[j] - h[j] * m[k]) / (h[j] + h[k])
            d[j] = e if e > 0 else 0.0
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.array((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1], x[:-1]))


def _eval_cubics(c, t) -> np.ndarray:
    """Piecewise cubic of a :func:`_pchip_cubics` block at ascending t.

    Each t takes the cubic of the interval [x[k], x[k+1]) that holds it; t
    below x[1] takes the first and t from x[-2] on the last.  Since t
    ascends, each interval's t form one run, counted by where the inner
    knots fall among the t, and the interval's column is repeated over its
    run in one pass.
    """
    edges = np.empty(c.shape[1] + 1, dtype=np.intp)
    edges[0], edges[-1] = 0, t.size
    edges[1:-1] = t.searchsorted(c[4, 1:])
    c0, c1, c2, c3, s = c.repeat(edges[1:] - edges[:-1], axis=1)
    np.subtract(t, s, out=s)
    s2 = s * s
    # c3 + c2 s + c1 s^2 + c0 (s^2 s), summed by ascending power rather than
    # by Horner's rule, in place: this order reproduces earlier pavi
    # versions' quantiles, and so their references, bit for bit
    c2 *= s
    c2 += c3
    c1 *= s2
    c2 += c1
    s2 *= s
    c0 *= s2
    c2 += c0
    return c2


class GridDensity:
    """Normalized probability density on a uniform 1-D grid, kept in log space.

    ``nodes`` are raw nodes, checked here, or the ``_Grid`` of a density
    already built, which is taken as it is.  The density is exponentiated
    once and checked to normalize; its CDF, mean and quadrature weights reuse
    it.  Its quantile function makes it usable directly as a reference
    marginal.  Nothing changes it once built, so it keeps what it derives on
    first use: CDF, quantile knots and cubics, W2 midpoint quantile table, and
    mean.
    """

    __slots__ = ("grid", "nodes", "log_density", "_density", "_knots", "_cubics",
                 "_w2_table", "_mean")

    def __init__(self, nodes, log_values):
        grid = nodes if isinstance(nodes, _Grid) else _Grid(nodes)
        log_values = np.asarray(log_values, dtype=float)
        if log_values.shape != grid.nodes.shape:
            raise ConfigError("log-density values must match the grid shape")
        top = np.maximum.reduce(log_values)
        if not top < np.inf:
            raise OracleConvergenceError("log-density values must be < +inf and not NaN")
        if top == -np.inf:
            raise OracleConvergenceError("all log-density values are -inf on the grid")
        log_z = _log_sum_exp(log_values + grid.log_weights)
        self.grid, self.nodes = grid, grid.nodes
        self.log_density = log_values - log_z
        self._density = np.exp(self.log_density)
        self._density.flags.writeable = False
        self._knots = self._cubics = self._w2_table = self._mean = None
        total = _trapezoid(grid.h, self._density)
        if abs(total - 1.0) > 1e-10:
            raise OracleConvergenceError(
                f"grid density failed to normalize (trapezoid mass {total})"
            )

    def density(self) -> np.ndarray:
        """The kept (read-only) density values."""
        return self._density

    def boundary_density(self) -> float:
        d = self.log_density
        return float(np.exp(max(d[0], d[-1])))

    def mean(self) -> float:
        if self._mean is None:
            self._mean = _trapezoid(self.grid.h, self.nodes * self._density)
        return self._mean

    def _interpolant(self):
        """Quantile knots (the CDF) and their cubics, built on first use."""
        if self._knots is None:
            cdf = _cumulative_simpson(self._density, self.grid)
            np.maximum(cdf, 0.0, out=cdf)
            np.maximum.accumulate(cdf, out=cdf)
            cdf /= cdf[-1]
            # denormal CDF increments in the far tails would overflow the
            # interpolant's slopes; dropping them discards ~1e-12 of u-mass
            keep = np.concatenate(([True], cdf[1:] - cdf[:-1] > 1e-12))
            self._knots = cdf[keep]
            self._cubics = _pchip_cubics(self._knots, self.nodes[keep])
        return self._knots, self._cubics

    def quantile(self, u):
        """Monotone quantile function: the PCHIP of the nodes against the CDF.

        ``u`` may have any shape and order; unsorted levels are evaluated in
        ascending order and put back in place.
        """
        u = np.asarray(u, dtype=float)
        flat = u.ravel()
        if np.all(flat[1:] >= flat[:-1]):
            out = self._ascending_quantile(flat)
        else:
            order = np.argsort(flat, kind="stable")
            out = np.empty_like(flat)
            out[order] = self._ascending_quantile(flat[order])
        return out.reshape(u.shape)

    def _ascending_quantile(self, u) -> np.ndarray:
        """The quantile at 1-D ascending levels u."""
        knots, cubics = self._interpolant()
        # u beyond the last knot lies in the dropped tail mass: it maps to the
        # last kept node rather than off the interpolant
        out = _eval_cubics(cubics, np.clip(u, knots[0], knots[-1]))
        return np.clip(out, self.nodes[0], self.nodes[-1])

    def _w2_quantiles(self) -> np.ndarray:
        """quantile(_W2_U), kept: the levels ascend, so no order check."""
        if self._w2_table is None:
            self._w2_table = self._ascending_quantile(_W2_U)
        return self._w2_table

    def w2_to(self, other: "GridDensity") -> float:
        """W2 between two grid densities through their midpoint quantile tables."""
        d = self._w2_quantiles() - other._w2_quantiles()
        d *= d
        return math.sqrt(np.add.reduce(d) / d.size)


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
    return [grid.nodes for grid in _centered_grids(pot, G, half_width)[1]]


def _centered_grids(pot, G, half_width):
    """The minimizer and a checked grid per coordinate, from one search."""
    G = int(G)
    if G < 9:
        raise ConfigError("grid size must be at least 9 nodes")
    center = minimizer(pot)
    hw = 8.0 / math.sqrt(pot.alpha) if half_width is None else float(half_width)
    try:
        grids = [_Grid(np.linspace(c - hw, c + hw, G)) for c in center]
    except ConfigError as err:
        raise ConfigError(f"half_width {hw!r} gives no usable grid: {err}") from None
    return center, grids


def initial_grid_products(pot, G=DEFAULT_GRID_SIZE, kinds=("uniform",), half_width=None):
    """Starting points for the fixed-point iteration, one per kind, on the
    grids of one minimizer search.

    "uniform" is flat over each grid; "narrow" is a tight Gaussian bump at the
    minimizer (a smoothed point mass, used to cross-check that different
    starts reach the same fixed point).
    """
    center, grids = _centered_grids(pot, G, half_width)
    for kind in kinds:
        if kind not in ("uniform", "narrow"):
            raise ConfigError(f"unknown init kind {kind!r}")
    return [GridProduct(
        GridDensity(g, np.zeros(g.nodes.size) if kind == "uniform"
                    else -0.5 * ((g.nodes - c) / (4.0 * g.step)) ** 2)
        for g, c in zip(grids, center)
    ) for kind in kinds]


def initial_grid_product(pot, G=DEFAULT_GRID_SIZE, kind="uniform", half_width=None):
    """The one start of :func:`initial_grid_products` of the given kind."""
    return initial_grid_products(pot, G, (kind,), half_width)[0]


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
        cols = np.array([[d.mean()] for d in q.marginals]).repeat(nodes.size, axis=1)
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
        w = np.outer(w, d.grid.weights * d.density()).ravel()
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
    return GridDensity(q.marginals[i].grid, -vbar)


def fixed_point_solve(
    pot,
    init: GridProduct,
    tol: float = 1e-8,
    max_iter: int = 200,
    damping: float = 1.0,
) -> GridProduct:
    """Cyclic coordinate iteration to the fixed point of the marginal update.

    Sweeps coordinates in order, optionally damping in log space.  After each
    sweep a verification pass re-applies the update at the committed product,
    without committing it, and measures each coordinate's W2 residual; the
    solve converges once every residual is below ``tol``.  The pass always
    computes coordinate 0, whose update is the next sweep's first one since
    no marginal changes in between, and stops at the first residual at or
    above ``tol``, which already rules convergence out.  On the last sweep of
    the budget it computes every coordinate, so the error names the largest
    residual.  Raises if mass reaches a grid boundary or the sweep budget
    runs out.
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
    last = int(max_iter)
    for sweep in range(1, last + 1):
        max_w2 = 0.0
        max_sup = 0.0
        for i in range(q.m):
            new_i = first if i == 0 and first is not None else apply_transform(pot, i, q)
            if damping < 1.0:
                mixed = damping * new_i.log_density + (1.0 - damping) * q.marginals[i].log_density
                new_i = GridDensity(new_i.grid, mixed)
            if new_i.boundary_density() > _BOUNDARY_TOL:
                raise OracleConvergenceError(
                    f"mass reached the boundary of coordinate {i}'s grid "
                    f"(density {new_i.boundary_density():.3e}); widen the grid"
                )
            max_w2 = max(max_w2, new_i.w2_to(q.marginals[i]))
            change = np.abs(new_i.log_density - q.marginals[i].log_density)
            max_sup = max(max_sup, float(np.maximum.reduce(change)))
            q.marginals[i] = new_i
        history.append((sweep, max_w2, max_sup))
        # verification pass: residuals of re-applying the update at the
        # committed product, measured without committing
        first = apply_transform(pot, 0, q)
        resid = [first.w2_to(q.marginals[0])]
        for i in range(1, q.m):
            if resid[-1] >= tol and sweep < last:
                break
            resid.append(apply_transform(pot, i, q).w2_to(q.marginals[i]))
        if max(resid) < tol:
            q.residual = ResidualReport(
                sweeps=sweep,
                per_coordinate_w2=resid,
                log_sup_change=max_sup,
                converged=True,
                history=history,
            )
            return q
    tail = ", ".join(f"({n}, {w2:.3e}, {sup:.3e})" for n, w2, sup in history[-3:])
    raise OracleConvergenceError(
        f"fixed-point iteration did not reach tol={tol} in {max_iter} sweeps "
        f"(verification residual {max(resid):.3e}, last sweep's largest W2 change "
        f"{history[-1][1]:.3e}; last (sweep, max_w2, max_sup): {tail})",
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
    """Inverse of :func:`save_reference`; a corrupt file raises ConfigError.

    So does a residual that is not null or a converged solve's record, since
    :func:`fixed_point_solve` returns only converged products.
    """
    doc = read_json(path)
    if doc.get("format") != _FORMAT:
        raise ConfigError(f"{path} is not a reference document")
    residual = doc.get("residual")
    if residual is not None and not (
        isinstance(residual, dict) and residual.get("converged") is True
    ):
        raise ConfigError(f"{path} holds a residual that is not a converged solve's")
    if not isinstance(doc.get("provenance"), str):
        raise ConfigError(f"{path} holds a provenance that is not a string")
    marginals = []
    try:
        for entry in doc["marginals"]:
            if entry["type"] == "gaussian":
                make, args = GaussianMarginal, _finite_fields(path, entry, "mean", "var")
            elif entry["type"] == "grid":
                lo, hi = _finite_fields(path, entry, "lo", "hi")
                count = as_integer(entry["count"])
                if count is None:
                    raise ValueError(f"count {entry['count']!r} is not an integer")
                logd = decode_f8(entry["log_density"], count, path)
                make, args = GridDensity, (np.linspace(lo, hi, count), logd)
            else:
                raise ConfigError(f"{path} holds an unknown marginal type {entry['type']!r}")
            try:
                marginals.append(make(*args))
            except ConfigError as err:
                kind = entry["type"]
                raise ConfigError(f"{path} holds a malformed {kind} marginal ({err})") from None
        return ReferenceProduct(marginals, doc["provenance"], residual)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path} is a malformed reference ({err!r})") from None
