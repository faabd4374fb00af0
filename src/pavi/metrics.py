"""Wasserstein-2 distances for product empirical measures and references.

One-dimensional distances between equal-size empirical measures use the
sorted (order-statistics) coupling, which is optimal on the line.  Distances
between product measures combine the per-coordinate values in quadrature,
summed in ascending coordinate order so the arithmetic is reproducible.
Gaussian reference quantiles use Wichura's algorithm AS241 (PPND16, "The
percentage points of the normal distribution", Applied Statistics 1988),
accurate to about 1e-16 relative in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .particles import ParticleArray

# AS241 coefficients, lowest degree first: numerator and denominator of the
# central region |u - 1/2| <= 0.425, then of the two tail regions in
# r = sqrt(-log(min(u, 1 - u))), r <= 5 and r > 5
_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3),
)
_NEAR_TAIL = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_FAR_TAIL = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)


def _rational(coefficients, r):
    """Ratio of the two polynomials in ``coefficients`` at r, by Horner's rule."""
    num, den = coefficients
    p = np.full_like(r, num[-1])
    q = np.full_like(r, den[-1])
    for a, b in zip(num[-2::-1], den[-2::-1]):
        p *= r
        p += a
        q *= r
        q += b
    p /= q
    return p


def _ndtri(u):
    """Standard normal quantile (AS241).

    u = 0 gives -inf, u = 1 gives +inf, and u outside [0, 1] or NaN gives
    NaN.
    """
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    q = flat - 0.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = q * _rational(_CENTRAL, 0.180625 - q * q)
        # NaN and u outside [0, 1] fall here and stay NaN through the log
        tail = ~(np.abs(q) <= 0.425)
        ut = flat[tail]
        r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
        x = _rational(_NEAR_TAIL, r - 1.6)
        far = r > 5.0
        x[far] = _rational(_FAR_TAIL, r[far] - 5.0)
    out[tail] = np.copysign(x, q[tail])
    out[flat == 0.0] = -np.inf
    out[flat == 1.0] = np.inf
    return out.reshape(u.shape)


def w2_1d_empirical(a, b) -> float:
    """W2 between two equal-size empirical measures on the line."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise ConfigError(f"supports must have equal size, got {a.size} and {b.size}")
    if a.size == 0:
        raise ConfigError("empirical measures need at least one atom")
    d = np.sort(a) - np.sort(b)
    return float(math.sqrt(np.mean(d * d)))


def w2_product_empirical(X: ParticleArray, Y: ParticleArray) -> float:
    """W2 between two product empirical measures (additive across coordinates)."""
    if X.m != Y.m or X.N != Y.N:
        raise ConfigError(
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
            raise ConfigError(f"variance must be nonnegative, got {var}")
        self.mean = float(mean)
        self.var = float(var)

    def quantile(self, u):
        return self.from_standard(_ndtri(u))

    def from_standard(self, z):
        """The quantiles at the levels whose standard normal quantiles are z."""
        if self.var == 0.0:
            return np.full_like(z, self.mean)
        return self.mean + math.sqrt(self.var) * z


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
            # every Gaussian row scales the one standard table
            z = None
            rows = []
            for mar in self.marginals:
                if isinstance(mar, GaussianMarginal):
                    z = _ndtri(u) if z is None else z
                    rows.append(mar.from_standard(z))
                else:
                    rows.append(mar.quantile(u))
            table = np.vstack(rows)
            if not np.all(np.isfinite(table)):
                raise ConfigError(
                    "reference quantiles are non-finite at interior probabilities"
                )
            self._tables[N] = table
        return self._tables[N]


def w2_reference_profile(X, ref: ReferenceProduct, out=None):
    """Per-coordinate W2 to the reference plus the quadrature total.

    ``X`` is a ParticleArray, or particle values whose last two axes are
    (m, N): R stacked states are an (R, m, N) array, and give (R, m)
    per-coordinate values and R totals, each replication's the same as for its
    own ParticleArray.  The sorted rows and their squared distances to the
    quantile table are computed in ``out``, scratch space of the values'
    shape, when one is given.
    """
    values = X.values if isinstance(X, ParticleArray) else np.asarray(X, dtype=float)
    m, N = values.shape[-2:]
    if m != ref.m:
        raise ConfigError(f"dimension mismatch: particles m={m}, reference m={ref.m}")
    table = ref.quantile_table(N)
    d = np.empty_like(values) if out is None else out
    np.copyto(d, values)
    d.sort(axis=-1)
    np.subtract(d, table, out=d)
    np.multiply(d, d, out=d)
    per = np.sqrt(d.mean(axis=-1))
    total = np.sqrt(np.sum(per * per, axis=-1))
    return per, (float(total) if total.ndim == 0 else total)


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
        raise ConfigError(
            f"samples must have shape ({pot.m}, K), got {samples.shape}"
        )
    grads = pot.gradient_cols(samples)
    mean_grad = grads.mean(axis=1)
    return GradMoments(
        mean_grad_norm=float(np.linalg.norm(mean_grad)),
        mean_sq_grad=float(np.mean(np.sum(grads * grads, axis=0))),
        coordinate_variances=samples.var(axis=1, ddof=1),
    )
