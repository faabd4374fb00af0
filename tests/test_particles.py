import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import chisquare

from pavi import (
    ParticleArray,
    QuadraticPotential,
    RngStream,
    RunConfig,
    ConfigError,
    coordinate_means,
    gaussian_mfvi_solution,
    init_particles,
    run,
    sample_product,
)
from numpy.random import PCG64DXSM, Generator, SeedSequence
from pavi.dynamics import _write_checkpoint, read_checkpoint
from pavi.particles import _ITERATIONS, _ROLE_CODES
from pavi.reports import encode_f8


class TestInitParticles:
    def test_point_mass(self):
        X = init_particles(2, 3, ("point", [0.0, 0.0]), seed=7)
        assert np.array_equal(X.values, np.zeros((2, 3)))

    def test_determinism(self):
        a = init_particles(1, 4, "standard_normal", seed=7)
        b = init_particles(1, 4, "standard_normal", seed=7)
        assert np.array_equal(a.values, b.values)
        c = init_particles(1, 4, "standard_normal", seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_single_particle_rejected(self):
        with pytest.raises(ConfigError, match="N >= 2"):
            init_particles(2, 1)

    def test_explicit_array(self):
        vals = np.arange(6.0).reshape(2, 3)
        X = init_particles(2, 3, vals)
        assert np.array_equal(X.values, vals)

    def test_explicit_shape_mismatch(self):
        with pytest.raises(ConfigError):
            init_particles(2, 3, np.zeros((3, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            ParticleArray([[0.0, np.inf], [0.0, 0.0]])


class TestRngStream:
    def test_same_coordinates_same_draws(self):
        s = RngStream(123)
        a = s.generator(5, "noise").standard_normal(8)
        b = s.generator(5, "noise").standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_coordinates_distinct_draws(self):
        s = RngStream(123)
        base = s.generator(5, "noise").standard_normal(8)
        for coords in [(6, "noise"), (5, "context"), (4, "sample")]:
            assert not np.array_equal(base, s.generator(*coords).standard_normal(8))
        assert not np.array_equal(base, RngStream(124).generator(5, "noise").standard_normal(8))

    def test_negative_seed_allowed(self):
        a = RngStream(-3).generator().standard_normal(4)
        b = RngStream(-3).generator().standard_normal(4)
        assert np.array_equal(a, b)

    def test_unknown_role(self):
        with pytest.raises(ConfigError, match="role"):
            RngStream(0).generator(0, "bogus")

    @pytest.mark.parametrize("iteration", [-1, _ITERATIONS, 2**64, 1.0])
    def test_key_out_of_range(self, iteration):
        s = RngStream(0)
        with pytest.raises(ConfigError, match="iteration must be an integer in"):
            s.generator(iteration, "noise")
        with pytest.raises(ConfigError, match="iteration must be an integer in"):
            s.seat(s.generator(), iteration, "noise")


SEED = st.one_of(
    st.integers(-(2**63), 2**64 - 1), st.sampled_from([0, -1, 2**32, 2**64 - 1])
)
# both ends of the range, small iterations, and anywhere in between
ITERATION = st.one_of(
    st.sampled_from([0, 1, _ITERATIONS - 1]),
    st.integers(0, 2**16),
    st.integers(0, _ITERATIONS - 1),
)
ROLE = st.sampled_from(sorted(_ROLE_CODES))


def numpy_generator(seed, iteration, role):
    """The independent reference: numpy's PCG64DXSM seeded from the seed and
    advanced to the first of the 2**64 outputs the key owns."""
    bits = PCG64DXSM(SeedSequence(seed & (2**64 - 1)))
    bits.advance((iteration * len(_ROLE_CODES) + _ROLE_CODES[role]) * 2**64)
    return Generator(bits)


class TestStateDerivation:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEED, role=ROLE, iteration=ITERATION)
    def test_matches_numpy_seeding(self, seed, role, iteration):
        stream = RngStream(seed)
        # a generator whose last draw left half a 64-bit output buffered
        used = stream.generator()
        used.integers(0, 2**20, 3)
        for gen in (stream.generator(iteration, role), stream.seat(used, iteration, role)):
            ref = numpy_generator(seed, iteration, role)
            # 32-bit draws first: the generator buffers them in halves of a 64-bit
            # output, and a seated generator must start with an empty buffer
            assert np.array_equal(gen.integers(0, 2**20, 7), ref.integers(0, 2**20, 7))
            assert np.array_equal(gen.standard_normal(5), ref.standard_normal(5))
            assert np.array_equal(gen.integers(0, 1000, 7), ref.integers(0, 1000, 7))

    @settings(max_examples=100, deadline=None)
    @given(seed=SEED, a=st.tuples(ITERATION, ROLE), b=st.tuples(ITERATION, ROLE))
    def test_distinct_keys_distinct_draws(self, seed, a, b):
        assume(a != b)
        s = RngStream(seed)
        assert not np.array_equal(
            s.generator(*a).integers(0, 2**62, 4), s.generator(*b).integers(0, 2**62, 4)
        )

    def test_generators_are_independent(self):
        # each generator() call owns its state: drawing from one leaves another alone
        s = RngStream(5)
        a, b = s.generator(0, "noise"), s.generator(0, "noise")
        first = a.standard_normal(4)
        b.standard_normal(100)
        expected = numpy_generator(5, 0, "noise").standard_normal(8)
        assert np.array_equal(np.concatenate([first, a.standard_normal(4)]), expected)


    @pytest.mark.parametrize("seed", [0, 70001])
    @pytest.mark.parametrize(
        "a, b",
        [((0, "context"), (1, "context")), ((0, "noise"), (1, "noise")), ((0, "init"), (0, "noise"))],
        ids=["context-neighbours", "noise-neighbours", "init-noise"],
    )
    def test_keys_share_no_bits(self, seed, a, b):
        # every two keys' stretches share the low half of the LCG state; the
        # XOR of their outputs must still have a popcount of 32 on average
        # (PCG64 at these offsets falls 8 to 14 standard errors short)
        n = 2**20
        s = RngStream(seed)
        xor = s.generator(*a).bit_generator.random_raw(n)
        xor ^= s.generator(*b).bit_generator.random_raw(n)
        z = (np.bitwise_count(xor).mean() - 32.0) / (4.0 / np.sqrt(n))
        assert abs(z) < 5.0, z


class TestSeatedDraws:
    def test_same_draws_as_stream_in_any_order(self):
        # one generator seated at key after key, forward and back to earlier
        # iterations; each odd count of 32-bit draws leaves half an output
        # buffered, which the next seating must drop
        stream = RngStream(11)
        gen = stream.generator()
        for n in [0, 3, 4, 9, 5, 2]:
            for role in ["noise", "context", "init"]:
                got = stream.seat(gen, n, role).integers(0, 2**20, 5)
                assert np.array_equal(got, stream.generator(n, role).integers(0, 2**20, 5))


class TestSampleProduct:
    def test_degenerate_support(self):
        xbar = np.array([1.5, -2.0])
        X = init_particles(2, 4, ("point", xbar))
        z = sample_product(X, 10, RngStream(0).generator())
        assert np.array_equal(z, np.repeat(xbar[:, None], 10, axis=1))

    def test_product_independence_frequency(self):
        # joint frequency of the (0, 1) pair under the product of two
        # two-atom marginals is 1/4
        X = ParticleArray([[0.0, 1.0], [0.0, 1.0]])
        z = sample_product(X, 100_000, RngStream(3).generator())
        freq = np.mean((z[0] == 0.0) & (z[1] == 1.0))
        assert freq == pytest.approx(0.25, abs=0.01)

    def test_marginal_frequencies_binomial_band(self):
        N, draws = 5, 100_000
        X = ParticleArray(np.arange(2.0 * N).reshape(2, N))
        z = sample_product(X, draws, RngStream(4).generator())
        p = 1.0 / N
        band = 3.0 * np.sqrt(p * (1 - p) / draws)
        for i in range(2):
            for atom in X.values[i]:
                assert np.mean(z[i] == atom) == pytest.approx(p, abs=band)

    def test_index_law_chi_square(self):
        N, draws = 8, 100_000
        X = ParticleArray(np.arange(float(N))[None, :].repeat(2, axis=0))
        z = sample_product(X, draws, RngStream(5).generator())
        counts = np.bincount(z[0].astype(int), minlength=N)
        assert chisquare(counts).pvalue > 1e-3

    def test_coordinate_independence_correlation(self):
        draws = 100_000
        X = ParticleArray(np.arange(8.0)[None, :].repeat(2, axis=0))
        z = sample_product(X, draws, RngStream(6).generator())
        corr = np.corrcoef(z[0], z[1])[0, 1]
        assert abs(corr) <= 4.0 / np.sqrt(draws)

    def test_invalid_batch(self):
        X = init_particles(1, 2)
        with pytest.raises(ConfigError):
            sample_product(X, 0, RngStream(0).generator())


class TestMarginalViews:
    def test_coordinate_means(self):
        q = ParticleArray([[0.0, 2.0], [-1.0, 1.0]])
        assert np.array_equal(coordinate_means(q), [1.0, 0.0])

    def test_coordinate_means_point_mass(self):
        xbar = np.array([0.25, -4.0])
        q = init_particles(2, 6, ("point", xbar))
        assert np.allclose(coordinate_means(q), xbar, atol=1e-15)

    def test_coordinate_means_permutation_invariant(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((3, 10))
        shuffled = np.vstack([rng.permutation(row) for row in vals])
        a = coordinate_means(ParticleArray(vals))
        b = coordinate_means(ParticleArray(shuffled))
        assert np.allclose(a, b, atol=1e-15)


def _checkpoint(path, values):
    m, N = values.shape
    cfg = RunConfig(N=N, T=1, h=0.1, B=1, schedule="explicit")
    pot = QuadraticPotential(np.eye(m))
    _write_checkpoint(path, pot, cfg, 1, ParticleArray(values), [], [])


class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(2, 9)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_round_trip(self, values):
        # the checkpoint codec is bit-exact for every finite array, including
        # signed zeros and subnormals
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ck.json"
            _checkpoint(path, values)
            _, X = read_checkpoint(path)
        assert X.values.tobytes() == np.ascontiguousarray(values).tobytes()
        assert X.values.shape == values.shape

    def test_checkpoint_text_is_sorted_json(self, tmp_path):
        # the particles are written as bytes between the rest of the document,
        # and the file is exactly the text json.dumps gives for the whole
        path = tmp_path / "ck.json"
        pot = QuadraticPotential([[2.0, 0.5], [0.5, 2.0]])
        cfg = RunConfig(N=50, T=6, schedule="corollary", seed=3, metrics_every=2)
        run(pot, cfg, gaussian_mfvi_solution(pot), checkpoint_path=path)
        doc, X = read_checkpoint(path)
        assert len(doc["rows"]) == 4 and len(doc["wall_times"]) == 4
        assert doc["particles"] == encode_f8(X.values)
        assert path.read_bytes() == json.dumps(doc, sort_keys=True).encode()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(ConfigError, match="not a checkpoint"):
            read_checkpoint(path)
