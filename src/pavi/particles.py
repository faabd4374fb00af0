"""Particle arrays, seeded RNG streams, and sampling from the product
empirical measure of an array, which is never materialized."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# numpy loads its random module lazily, on first use; every run draws from it,
# so it is loaded with pavi, as part of start-up, not inside the first step
from numpy.random import Generator, SeedSequence, default_rng

from .errors import ConfigError, UsageError

_ROLE_CODES = {"init": 0, "context": 1, "noise": 2, "reference": 3, "sample": 4}


@dataclass(frozen=True)
class RngStream:
    """Counter-addressed randomness: (seed, iteration, role, row) -> stream.

    Identical coordinates always yield identical draws, independent of the
    order in which they are requested, so runs and sweep replications stay
    bit-reproducible.
    """

    seed: int

    def generator(self, iteration=0, role="sample", row=0) -> Generator:
        try:
            code = _ROLE_CODES[role]
        except KeyError:
            raise UsageError(
                f"unknown rng role {role!r}; expected one of {sorted(_ROLE_CODES)}"
            ) from None
        iteration = int(iteration)
        row = int(row)
        if iteration < 0 or row < 0:
            raise UsageError("iteration and row must be nonnegative")
        ss = SeedSequence(
            entropy=int(self.seed) & 0xFFFFFFFFFFFFFFFF,
            spawn_key=(code, iteration, row),
        )
        return default_rng(ss)


class ParticleArray:
    """An m-by-N array of particle coordinates; row i holds coordinate i."""

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.ascontiguousarray(values, dtype=float)
        if v.ndim != 2:
            raise ConfigError(f"particle array must be 2-D, got shape {v.shape}")
        m, N = v.shape
        if m < 1:
            raise ConfigError("particle array needs at least one coordinate row")
        if N < 2:
            raise ConfigError(
                f"N >= 2 required (got N={N}); the convergence guarantee "
                "needs at least two particles"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigError("particle values must be finite")
        self.values = v

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def N(self) -> int:
        return self.values.shape[1]


def init_particles(m, N, init="standard_normal", seed=0) -> ParticleArray:
    """Create the initial m-by-N particle state.

    ``init`` is either "standard_normal" (i.i.d. N(0,1) entries drawn from the
    seed's init stream), ("point", vector) for a point mass, or an explicit
    (m, N) array.
    """
    m, N = int(m), int(N)
    if N < 2:
        raise ConfigError(
            f"N >= 2 required (got N={N}); the convergence guarantee "
            "needs at least two particles"
        )
    if isinstance(init, str):
        if init != "standard_normal":
            raise ConfigError(f"unknown init spec {init!r}")
        vals = RngStream(seed).generator(0, "init").standard_normal((m, N))
    elif isinstance(init, tuple) and len(init) == 2 and init[0] == "point":
        point = np.asarray(init[1], dtype=float)
        if point.shape != (m,):
            raise ConfigError(f"point init must be a length-{m} vector")
        vals = np.repeat(point[:, None], N, axis=1)
    else:
        vals = np.asarray(init, dtype=float)
        if vals.shape != (m, N):
            raise ConfigError(
                f"explicit init must have shape ({m}, {N}), got {vals.shape}"
            )
    return ParticleArray(vals)


def sample_product(X: ParticleArray, B, gen: Generator) -> np.ndarray:
    """Draw B i.i.d. columns from the product empirical measure of X.

    For each coordinate i independently a uniform atom index is drawn from
    ``gen``, so entries are independent across coordinates and across columns.
    """
    B = int(B)
    if B < 1:
        raise UsageError(f"B must be >= 1, got {B}")
    idx = gen.integers(0, X.N, size=(X.m, B))
    return X.values[np.arange(X.m)[:, None], idx]


def sorted_marginal(X: ParticleArray, i) -> np.ndarray:
    """Order statistics of marginal i (ascending, ties kept stable)."""
    if not 0 <= int(i) < X.m:
        raise UsageError(f"coordinate index {i} out of range for dimension {X.m}")
    return np.sort(X.values[int(i)], kind="stable")


def coordinate_means(X: ParticleArray) -> np.ndarray:
    """Per-coordinate means (1/N) sum_j X[i, j]."""
    return X.values.mean(axis=1)
