import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import chisquare

from pavi import (
    ConfigError,
    ParticleArray,
    QuadraticPotential,
    RngStream,
    RunConfig,
    UsageError,
    coordinate_means,
    init_particles,
    sample_product,
    sorted_marginal,
)
from pavi.dynamics import _write_checkpoint, read_checkpoint


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
        a = s.generator(5, "noise", 1).standard_normal(8)
        b = s.generator(5, "noise", 1).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_coordinates_distinct_draws(self):
        s = RngStream(123)
        base = s.generator(5, "noise", 1).standard_normal(8)
        for coords in [(6, "noise", 1), (5, "context", 1), (5, "noise", 2)]:
            assert not np.array_equal(base, s.generator(*coords).standard_normal(8))

    def test_negative_seed_allowed(self):
        a = RngStream(-3).generator().standard_normal(4)
        b = RngStream(-3).generator().standard_normal(4)
        assert np.array_equal(a, b)

    def test_unknown_role(self):
        with pytest.raises(UsageError, match="role"):
            RngStream(0).generator(0, "bogus")


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
        with pytest.raises(UsageError):
            sample_product(X, 0, RngStream(0).generator())


class TestMarginalViews:
    def test_sorted_marginal(self):
        q = ParticleArray([[3.0, 1.0, 2.0]])
        assert np.array_equal(sorted_marginal(q, 0), [1.0, 2.0, 3.0])

    def test_sorted_marginal_ties(self):
        q = ParticleArray([[1.0, 1.0, 0.0]])
        assert np.array_equal(sorted_marginal(q, 0), [0.0, 1.0, 1.0])

    def test_sorted_marginal_idempotent(self):
        q = ParticleArray([[-1.0, 0.0, 2.0]])
        assert np.array_equal(sorted_marginal(q, 0), q.values[0])

    def test_sorted_marginal_index_error(self):
        q = ParticleArray([[0.0, 1.0]])
        with pytest.raises(UsageError):
            sorted_marginal(q, 1)

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
    cfg = RunConfig(N=N, T=1, h=0.1, B=1)
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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(ConfigError, match="not a checkpoint"):
            read_checkpoint(path)
