"""Particle arrays, seeded RNG streams, and sampling from the product
empirical measure of an array, which is never materialized.

Every draw is addressed by (seed, iteration, role).  A seed's stream is one
PCG64DXSM, seeded once as numpy seeds it from ``SeedSequence(seed mod
2**64)``; the key (iteration, role) owns the 2**64 outputs that begin at offset
``(iteration * len(_ROLE_CODES) + role code) * 2**64``, and a generator is put
at a key with the bit generator's own ``advance``.

Two keys' stretches share the low 64 bits of the 128-bit LCG state, output
for output.  PCG64's output function lets that through: the XOR of two keys'
outputs has a mean popcount about 0.04 below 32 (10 standard errors in 2**20
outputs), and neighbouring iterations' context indices agree about 3% more
often than chance.  PCG64DXSM's output function, a multiply-xorshift of the
high half times the low half, shows neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# numpy loads its random module lazily, on first use; every run draws from it,
# so it is loaded with pavi, as part of start-up, not inside the first step
from numpy.random import PCG64DXSM, Generator, SeedSequence

from .errors import ConfigError

_ROLE_CODES = {"init": 0, "context": 1, "noise": 2, "reference": 3, "sample": 4}
# the iterations whose keys fit in the generator's period: key k owns outputs
# [k * 2**64, (k + 1) * 2**64), and 2**64 keys fill the 2**128 outputs
_ITERATIONS = 2**64 // len(_ROLE_CODES)


@dataclass(frozen=True)
class RngStream:
    """Counter-addressed randomness: (seed, iteration, role) -> stream.

    Identical keys always yield identical draws, independent of the order in
    which they are requested, so runs and sweep replications stay
    bit-reproducible.  Keys own disjoint stretches of one PCG64DXSM stream, each
    2**64 outputs long.  Iterations run from 0 to ``_ITERATIONS - 1``.
    """

    seed: int

    @cached_property
    def _start(self) -> dict:
        """The state of the stream's bit generator right after seeding."""
        return PCG64DXSM(SeedSequence(int(self.seed) & 0xFFFFFFFFFFFFFFFF)).state

    def seat(self, gen: Generator, iteration, role) -> Generator:
        """Put ``gen`` at key (iteration, role) and return it.

        Restoring the start state also drops a buffered 32-bit half output,
        so the draws are those of a new generator at the key.
        """
        try:
            code = _ROLE_CODES[role]
        except KeyError:
            raise ConfigError(
                f"unknown rng role {role!r}; expected one of {sorted(_ROLE_CODES)}"
            ) from None
        if not isinstance(iteration, (int, np.integer)) or not 0 <= iteration < _ITERATIONS:
            raise ConfigError(
                f"iteration must be an integer in [0, {_ITERATIONS}), got {iteration!r}"
            )
        bits = gen.bit_generator
        bits.state = self._start
        bits.advance((int(iteration) * len(_ROLE_CODES) + code) << 64)
        return gen

    def generator(self, iteration=0, role="sample") -> Generator:
        """A new Generator at key (iteration, role), owning its own state."""
        # the seed is immaterial: seat replaces the state
        return self.seat(Generator(PCG64DXSM(0)), iteration, role)


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


def init_particles(m, N, init="standard_normal", seed=0, gen=None) -> ParticleArray:
    """Create the initial m-by-N particle state.

    ``init`` is either "standard_normal" (i.i.d. N(0,1) entries drawn at the
    init key of the seed's stream, or from ``gen`` when one is given),
    ("point", vector) for a point mass, or an explicit (m, N) array.
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
        if gen is None:
            gen = RngStream(seed).generator(0, "init")
        vals = gen.standard_normal((m, N))
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


def sample_product(X, B, gen: Generator) -> np.ndarray:
    """Draw B i.i.d. columns from the product empirical measure of X.

    ``X`` is a ParticleArray or its (m, N) values.  For each coordinate i
    independently a uniform atom index is drawn from ``gen``, so entries are
    independent across coordinates and across columns.
    """
    B = int(B)
    if B < 1:
        raise ConfigError(f"B must be >= 1, got {B}")
    values = X.values if isinstance(X, ParticleArray) else X
    m, N = values.shape
    idx = gen.integers(0, N, size=(m, B))
    return values[np.arange(m)[:, None], idx]


def coordinate_means(X: ParticleArray) -> np.ndarray:
    """Per-coordinate means (1/N) sum_j X[i, j]."""
    return X.values.mean(axis=1)
