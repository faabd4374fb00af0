"""Particle arrays, seeded RNG streams, and sampling from the product
empirical measure of an array, which is never materialized.

Every draw is addressed by (seed, iteration, role, row).  Its generator is
the PCG64 that numpy seeds from ``SeedSequence(seed mod 2**64,
spawn_key=(role code, iteration, row))``, so the bits are numpy's.  pavi does
not build those objects: it derives the PCG64 states of many keys at once
with a vectorized copy of ``SeedSequence``'s mixing (NEP 19) and PCG64's
128-bit set-seed, and seats a generator at a state through its
``bit_generator.state``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# numpy loads its random module lazily, on first use; every run draws from it,
# so it is loaded with pavi, as part of start-up, not inside the first step
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError

_ROLE_CODES = {"init": 0, "context": 1, "noise": 2, "reference": 3, "sample": 4}

# SeedSequence's constants (numpy/random/bit_generator.pyx): its pool holds
# four 32-bit words, and XSHIFT is half a word
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MIX_L32, _MIX_R32 = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# a spawn key here has at most five words: the role code, and one or two
# words each for an iteration and a row below 2**64
_MAX_KEY_WORDS = 5


def _hash_consts(const, mult, n):
    """The (xor, multiplier) pairs of ``n`` consecutive hashes that start at
    hash constant ``const``, as an (n, 2) uint32 array, and the constant after."""
    pairs = []
    for _ in range(n):
        nxt = const * mult & _MASK32
        pairs.append((const, nxt))
        const = nxt
    return np.array(pairs, dtype=np.uint32).reshape(n, 2), const


def _hashmix(value, const):
    """SeedSequence's hashmix on one word: (hashed word, next constant)."""
    mult = const * _MULT_A & _MASK32
    value = (value ^ const) * mult & _MASK32
    return value ^ (value >> _XSHIFT), mult


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> _XSHIFT)


# Mixing the seed's words into the pool always takes 16 hashes (4 to fill the
# pool, 12 for its pairs), so the constants of the spawn key's words, hashed
# once into each pool word, do not depend on the seed.
_KEY_CONSTS = _hash_consts(
    _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE**2)[1], _MULT_A, _POOL_SIZE * _MAX_KEY_WORDS
)[0].reshape(_MAX_KEY_WORDS, _POOL_SIZE, 2)
# generate_state(4, uint64) hashes pool words 0, 1, 2, 3, 0, 1, 2, 3 into 8 words
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)[0]
_STATE_CYCLE = np.tile(np.arange(_POOL_SIZE), 2)


def _mulhi64(a, b):
    """High 64 bits of the uint64 array ``a`` times the int ``b`` < 2**64."""
    a_hi, a_lo = a >> 32, a & _MASK32
    b_hi, b_lo = np.uint64(b >> 32), np.uint64(b & _MASK32)
    t = a_lo * b_lo
    u = a_hi * b_lo + (t >> 32)
    v = a_lo * b_hi + (u & _MASK32)
    return a_hi * b_hi + (u >> 32) + (v >> 32)


def _key_array(values):
    """Iterations or rows as a flat uint64 array; each must lie in [0, 2**64)."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        # numpy reads a list holding ints past 2**63 as float64
        a = np.array(values, dtype=object)
        if not all(isinstance(v, (int, np.integer)) for v in a.flat):
            raise ConfigError(f"iteration and row must be integers, got {values!r}")
    a = a.ravel()
    if a.size and (a.min() < 0 or a.max() > _MASK64):
        raise ConfigError("iteration and row must be nonnegative and below 2**64")
    return a.astype(np.uint64)


class _Unseeded(ISeedSequence):
    """Seeds a new PCG64 with zeros, so that building one costs no
    SeedSequence; every generator pavi builds is seated right after."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_UNSEEDED = _Unseeded()


def _unseeded_generator() -> Generator:
    """A new Generator whose state is about to be seated."""
    return Generator(PCG64(_UNSEEDED))


def _seat(gen: Generator, state, inc) -> Generator:
    """Put ``gen``'s PCG64 at (state, inc), as a freshly seeded one is."""
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


@dataclass(frozen=True)
class RngStream:
    """Counter-addressed randomness: (seed, iteration, role, row) -> stream.

    Identical coordinates always yield identical draws, independent of the
    order in which they are requested, so runs and sweep replications stay
    bit-reproducible.  The stream at a key is the one numpy's
    ``default_rng(SeedSequence(seed mod 2**64, spawn_key=(role code,
    iteration, row)))`` gives, bit for bit, for iterations and rows below
    2**64.  :meth:`states` derives the PCG64 states of many keys in one
    vectorized pass; :meth:`generator` is that pass for one key.
    """

    seed: int

    @cached_property
    def _pool(self):
        """The SeedSequence pool after the seed's words are mixed in.

        With a spawn key, numpy zero-pads the seed's one or two words to the
        pool size, so this prefix is the same for every key of the stream.
        """
        entropy = int(self.seed) & _MASK64
        words = [entropy & _MASK32, entropy >> 32] if entropy >> 32 else [entropy]
        words += [0] * (_POOL_SIZE - len(words))
        const = _INIT_A
        pool = []
        for w in words:
            h, const = _hashmix(w, const)
            pool.append(h)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    h, const = _hashmix(pool[src], const)
                    pool[dst] = _mix(pool[dst], h)
        return np.array(pool, dtype=np.uint32)

    def states(self, roles, iterations, rows):
        """PCG64 (states, incs) of the keys (iterations[k], roles[k], rows[k]).

        ``roles`` is one role name or a sequence of them; the three arguments
        broadcast against each other.  Returns two lists of Python ints, the
        128-bit LCG state and increment of each key, as numpy's PCG64 holds
        them right after seeding.
        """
        if isinstance(roles, str):
            roles = [roles]
        try:
            codes = [_ROLE_CODES[r] for r in roles]
        except KeyError as err:
            raise ConfigError(
                f"unknown rng role {err.args[0]!r}; expected one of {sorted(_ROLE_CODES)}"
            ) from None
        keys = np.broadcast_arrays(
            np.asarray(codes, dtype=np.uint64), *map(_key_array, (iterations, rows))
        )
        return _pcg64_set_seed(self._mix_keys(*keys))

    def _mix_keys(self, codes, iterations, rows):
        """The (K, 8) 32-bit words of ``generate_state(4, uint64)`` per key."""
        # a key element below 2**32 is one word, a larger one two, low first
        it_hi, row_hi = iterations >> 32, rows >> 32
        it2, row2 = it_hi > 0, row_hi > 0
        row_lo = rows & _MASK32
        words = [
            codes,
            iterations & _MASK32,
            np.where(it2, it_hi, row_lo),
            np.where(it2, row_lo, row_hi),
            row_hi,
        ]
        n_words = 3 + it2 + row2.astype(np.int64)
        mixer = self._pool
        for k in range(int(n_words.max(initial=3))):
            # word k is hashed into each pool word, with consecutive constants
            xor, mult = _KEY_CONSTS[k].T
            h = (words[k].astype(np.uint32)[:, None] ^ xor) * mult
            h ^= h >> _XSHIFT
            mixed = _MIX_L32 * mixer - _MIX_R32 * h
            mixed ^= mixed >> _XSHIFT
            mixer = mixed if k < 3 else np.where((k < n_words)[:, None], mixed, mixer)
        out = (mixer[:, _STATE_CYCLE] ^ _STATE_CONSTS[:, 0]) * _STATE_CONSTS[:, 1]
        out ^= out >> _XSHIFT
        return out

    def generator(self, iteration=0, role="sample", row=0) -> Generator:
        """A new, independent Generator at key (iteration, role, row)."""
        (state,), (inc,) = self.states(role, int(iteration), int(row))
        return _seat(_unseeded_generator(), state, inc)


def _pcg64_set_seed(words):
    """PCG64's set-seed from the (K, 8) state words: (states, incs) as ints.

    The words pair into four uint64s v, low word first; the seed is
    s = (v0 << 64) | v1 and the sequence q = (v2 << 64) | v3.  Then
    inc = 2 q + 1 and state = (inc + s) * MULT + inc, mod 2**128.  Each
    128-bit number is held as its high and low uint64 halves.
    """
    v = np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)
    inc_hi = v[:, 2] << 1 | v[:, 3] >> 63
    inc_lo = v[:, 3] << 1 | 1
    lo = inc_lo + v[:, 1]
    hi = inc_hi + v[:, 0] + (lo < inc_lo)
    # (hi, lo) * MULT mod 2**128, then + inc
    mult_hi, mult_lo = _PCG64_MULT >> 64, _PCG64_MULT & _MASK64
    hi = hi * np.uint64(mult_lo) + lo * np.uint64(mult_hi) + _mulhi64(lo, mult_lo)
    lo = lo * np.uint64(mult_lo)
    state_lo = lo + inc_lo
    state_hi = hi + inc_hi + (state_lo < inc_lo)
    return _join128(state_hi, state_lo), _join128(inc_hi, inc_lo)


def _join128(hi, lo):
    return [h << 64 | x for h, x in zip(hi.tolist(), lo.tolist())]


class SeatedDraws:
    """One Generator, re-seated at each key a run draws from.

    Serves ``generator(iteration, role, row)`` like :class:`RngStream`, but
    returns the same Generator each time, seated at that key, so a caller
    must finish with one draw before asking for the next.  The states of
    ``block`` iterations are derived at once, for rows 0 .. rows[role]-1 of
    each role, and never past iteration ``stop``.
    """

    def __init__(self, stream: RngStream, rows: dict, block, stop):
        self.stream = stream
        self.rows = dict(rows)
        self.block = int(block)
        self.stop = int(stop)
        self._gen = _unseeded_generator()
        self._lo = self._hi = 0
        self._offsets = {}
        self._states = self._incs = ()

    def _derive(self, iteration):
        lo, hi = iteration, max(iteration + 1, min(iteration + self.block, self.stop))
        roles, its, rows = [], [], []
        for role, r in self.rows.items():
            self._offsets[role] = len(roles)
            roles += [role] * ((hi - lo) * r)
            its.append(np.repeat(np.arange(lo, hi), r))
            rows.append(np.tile(np.arange(r), hi - lo))
        self._states, self._incs = self.stream.states(
            roles, np.concatenate(its), np.concatenate(rows)
        )
        self._lo, self._hi = lo, hi

    def generator(self, iteration, role, row=0) -> Generator:
        if not self._lo <= iteration < self._hi:
            self._derive(iteration)
        r = self.rows[role]
        if not 0 <= row < r:
            raise ConfigError(f"row {row} out of range for the {r} rows of role {role!r}")
        k = self._offsets[role] + (iteration - self._lo) * r + row
        return _seat(self._gen, self._states[k], self._incs[k])


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
        raise ConfigError(f"B must be >= 1, got {B}")
    idx = gen.integers(0, X.N, size=(X.m, B))
    return X.values[np.arange(X.m)[:, None], idx]


def sorted_marginal(X: ParticleArray, i) -> np.ndarray:
    """Order statistics of marginal i (ascending, ties kept stable)."""
    if not 0 <= int(i) < X.m:
        raise ConfigError(f"coordinate index {i} out of range for dimension {X.m}")
    return np.sort(X.values[int(i)], kind="stable")


def coordinate_means(X: ParticleArray) -> np.ndarray:
    """Per-coordinate means (1/N) sum_j X[i, j]."""
    return X.values.mean(axis=1)
