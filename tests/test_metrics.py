import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavi import (
    ConfigError,
    GaussianMarginal,
    ParticleArray,
    QuadraticPotential,
    ReferenceProduct,
    grad_moment_check,
    w2_1d_empirical,
    w2_product_empirical,
    w2_reference_profile,
)

from conftest import w2_1d_bruteforce


def q_of(rows):
    return ParticleArray(np.asarray(rows, dtype=float))


class TestW2OneDim:
    def test_hand_value(self):
        # sorted pairing costs sqrt(2/2); the crossed pairing costs sqrt(5)
        assert w2_1d_empirical([1, 3], [0, 2]) == pytest.approx(1.0, abs=1e-15)
        assert w2_1d_bruteforce([1, 3], [0, 2]) == pytest.approx(1.0, abs=1e-15)

    def test_identity(self):
        a = np.array([0.3, -1.0, 2.2])
        assert w2_1d_empirical(a, a) == 0.0

    def test_single_atom(self):
        assert w2_1d_empirical([0.0], [-2.5]) == pytest.approx(2.5)

    def test_shuffle_gives_zero(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(6)
        assert w2_1d_bruteforce(a, rng.permutation(a)) == pytest.approx(0.0, abs=1e-15)

    def test_unequal_lengths(self):
        with pytest.raises(ConfigError):
            w2_1d_empirical([1, 2], [1, 2, 3])

    def test_bruteforce_scale_gate(self):
        with pytest.raises(ConfigError):
            w2_1d_bruteforce(np.zeros(9), np.zeros(9))

    def test_sorted_coupling_is_optimal(self):
        # the order-statistics pairing achieves the permutation minimum
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = rng.integers(2, 7)
            a = rng.standard_normal(n) * rng.uniform(0.5, 3)
            b = rng.standard_normal(n) + rng.uniform(-2, 2)
            assert abs(w2_1d_empirical(a, b) - w2_1d_bruteforce(a, b)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sorted_coupling_beats_every_permutation(self, data):
        n = data.draw(st.integers(1, 40))
        atoms = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
        a = np.array(data.draw(atoms))
        b = np.array(data.draw(atoms))
        perm = np.array(data.draw(st.permutations(range(n))))
        coupling = float(np.sqrt(np.mean((a[perm] - b) ** 2)))
        w2 = w2_1d_empirical(a, b)
        assert w2 <= coupling * (1 + 1e-12) + 1e-12
        if n <= 7:
            assert w2 == pytest.approx(w2_1d_bruteforce(a, b), rel=1e-12, abs=1e-12)


class TestW2Product:
    def test_pythagorean(self):
        X = q_of([[0.0, 0.0], [0.0, 0.0]])
        Y = q_of([[3.0, 3.0], [4.0, 4.0]])
        assert w2_product_empirical(X, Y) == pytest.approx(5.0, abs=1e-15)

    def test_within_row_permutations_ignored(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((3, 8))
        shuffled = np.vstack([rng.permutation(row) for row in vals])
        assert w2_product_empirical(q_of(vals), q_of(shuffled)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_one_dim_reduction(self):
        a, b = [[1.0, 3.0]], [[0.0, 2.0]]
        assert w2_product_empirical(q_of(a), q_of(b)) == w2_1d_empirical(a[0], b[0])

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            w2_product_empirical(q_of([[0.0, 1.0]]), q_of([[0.0, 1.0, 2.0]]))

    def test_additivity_exact(self):
        # squared product distance equals the ascending-order sum of squares
        rng = np.random.default_rng(2)
        for _ in range(200):
            m, N = rng.integers(1, 4), rng.integers(2, 9)
            X, Y = rng.standard_normal((2, m, N))
            total_sq = w2_product_empirical(q_of(X), q_of(Y)) ** 2
            acc = 0.0
            for i in range(m):
                acc += w2_1d_empirical(X[i], Y[i]) ** 2
            assert total_sq == pytest.approx(acc, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m, N = rng.integers(1, 4), rng.integers(2, 7)
            X, Y, Z = (q_of(rng.standard_normal((m, N))) for _ in range(3))
            assert w2_product_empirical(X, Z) <= (
                w2_product_empirical(X, Y) + w2_product_empirical(Y, Z) + 1e-12
            )

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m, N = rng.integers(2, 4), rng.integers(2, 7)
            a = rng.standard_normal((m, N))
            b = rng.standard_normal((m, N))
            base = w2_product_empirical(q_of(a), q_of(b))
            shift = float(rng.standard_normal()) * 10
            a2, b2 = a.copy(), b.copy()
            a2[1] += shift
            b2[1] += shift
            assert w2_product_empirical(q_of(a2), q_of(b2)) == pytest.approx(
                base, abs=1e-12
            )


def one_marginal(marginal):
    return ReferenceProduct([marginal], "analytic-gaussian")


class TestReferenceDistances:
    def test_atoms_at_quantiles_give_zero(self):
        mar = GaussianMarginal(0.7, 2.0)
        N = 64
        atoms = mar.quantile((np.arange(N) + 0.5) / N)
        _, total = w2_reference_profile(q_of([atoms]), one_marginal(mar))
        assert total == pytest.approx(0.0, abs=1e-14)

    def test_equal_atoms_vs_point_mass(self):
        per, total = w2_reference_profile(
            q_of([[3.25, 3.25]]), one_marginal(GaussianMarginal(0.0, 0.0))
        )
        assert list(per) == [3.25]
        assert total == 3.25

    def test_normal_sample_regression_band(self):
        # frozen calibration constant: 1e4 standard normal atoms sit within
        # 0.05 of the standard normal with high probability
        ref = one_marginal(GaussianMarginal(0.0, 1.0))
        for seed in (0, 1, 2):
            atoms = np.random.default_rng(seed).standard_normal(10_000)
            assert w2_reference_profile(q_of([atoms]), ref)[1] < 0.05

    def test_quantile_failure_raises(self):
        class Broken:
            def quantile(self, u):
                return np.full_like(np.asarray(u, dtype=float), np.nan)

        with pytest.raises(ConfigError):
            w2_reference_profile(q_of([[0.0, 1.0]]), one_marginal(Broken()))

    def test_product_reference_pythagorean(self):
        # marginal distances 0.3 and 0.4 combine to 0.5
        N = 32
        u = (np.arange(N) + 0.5) / N
        ref = ReferenceProduct(
            [GaussianMarginal(0.0, 1.0), GaussianMarginal(1.0, 0.5)], "analytic-gaussian"
        )
        rows = np.vstack(
            [
                ref.marginals[0].quantile(u) + 0.3,
                ref.marginals[1].quantile(u) + 0.4,
            ]
        )
        per, total = w2_reference_profile(q_of(rows), ref)
        assert per == pytest.approx([0.3, 0.4], abs=1e-12)
        assert total == pytest.approx(0.5, abs=1e-12)

    def test_exact_coordinate_leaves_total_unchanged(self):
        N = 16
        u = (np.arange(N) + 0.5) / N
        m1 = GaussianMarginal(0.0, 1.0)
        m2 = GaussianMarginal(-2.0, 0.25)
        ref2 = ReferenceProduct([m1, m2], "analytic-gaussian")
        ref1 = ReferenceProduct([m1], "analytic-gaussian")
        row1 = m1.quantile(u) + 0.7
        base = w2_reference_profile(q_of([row1]), ref1)[1]
        with_exact = w2_reference_profile(q_of([row1, m2.quantile(u)]), ref2)[1]
        assert with_exact == pytest.approx(base, abs=1e-12)

    def test_dimension_mismatch(self):
        ref = ReferenceProduct([GaussianMarginal(0.0, 1.0)], "analytic-gaussian")
        with pytest.raises(ConfigError):
            w2_reference_profile(q_of([[0.0, 1.0], [0.0, 1.0]]), ref)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 6),
        half=st.integers(1, 300),
        odd=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_whole_array_profile_equals_per_row(self, m, half, odd, seed):
        # the sort, subtract, square and row mean over the whole array give
        # the bits of one sorted row at a time, with or without a scratch array
        N = 2 * half + int(odd)
        rng = np.random.default_rng(seed)
        ref = ReferenceProduct(
            [GaussianMarginal(rng.normal(), rng.choice([0.0, rng.uniform(0.1, 4.0)]))
             for _ in range(m)],
            "analytic-gaussian",
        )
        X = q_of(rng.standard_normal((m, N)) * rng.uniform(0.1, 10.0))
        table = ref.quantile_table(N)
        per_row = []
        for i in range(m):
            d = np.sort(X.values[i]) - table[i]
            per_row.append(math.sqrt(np.mean(d * d)))
        total = math.sqrt(np.sum(np.array(per_row) ** 2))
        before = X.values.copy()
        scratch = np.empty((m, N))
        for out in (None, scratch):
            per, got = w2_reference_profile(X, ref, out=out)
            assert per.tolist() == per_row
            assert got == total
        assert np.array_equal(X.values, before)

    def test_quantile_table_scales_one_standard_table(self, monkeypatch):
        # each Gaussian row is mean + sqrt(var) * z for one AS241 table z,
        # the bits of its own quantile; a grid row keeps its own quantile
        from pavi import GridDensity, metrics

        grid = np.linspace(-5.0, 5.0, 65)
        marginals = [GaussianMarginal(0.3, 2.0), GridDensity(grid, -0.5 * grid**2),
                     GaussianMarginal(-1.0, 0.0), GaussianMarginal(2.0, 0.5)]
        N = 101
        u = (np.arange(N) + 0.5) / N
        expected = np.vstack([mar.quantile(u) for mar in marginals])
        calls = []
        ndtri = metrics._ndtri
        monkeypatch.setattr(metrics, "_ndtri", lambda x: calls.append(x) or ndtri(x))
        table = ReferenceProduct(marginals, "test").quantile_table(N)
        assert np.array_equal(table, expected)
        assert len(calls) == 1

    def test_quantile_monotone(self):
        u = np.linspace(0.001, 0.999, 500)
        for mar in (GaussianMarginal(0.0, 1.0), GaussianMarginal(2.0, 0.0)):
            q = mar.quantile(u)
            assert np.all(np.diff(q) >= 0)


class TestGradMomentCheck:
    def test_isotropic_gaussian_moments(self):
        pot = QuadraticPotential(np.eye(2))
        K = 100_000
        rng = np.random.default_rng(11)
        samples = rng.standard_normal((2, K))
        diag = grad_moment_check(pot, samples)
        # gradient is the identity map: mean is O(sqrt(m/K)), mean square ~ m
        assert diag.mean_grad_norm <= 4.0 * np.sqrt(2.0 / K)
        assert diag.mean_sq_grad == pytest.approx(2.0, rel=0.05)
        assert np.all(diag.coordinate_variances <= 1.0 / pot.alpha + 4.0 * np.sqrt(2.0 / K))

    def test_shape_validation(self):
        pot = QuadraticPotential(np.eye(2))
        with pytest.raises(ConfigError):
            grad_moment_check(pot, np.zeros((3, 10)))
