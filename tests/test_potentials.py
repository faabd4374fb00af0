import itertools

import numpy as np
import pytest

import pavi
from pavi import (
    ConfigError,
    PerturbedQuadraticPotential,
    QuadraticPotential,
    potential_from_config,
)
from pavi.dynamics import stochastic_grad_at
from pavi.potentials import LOGCOSH_THIRD_SUP, logcosh, potential_fingerprint

from conftest import TanhCoupled


def quad_value_independent(A, mu, x):
    # independent double-loop oracle for 0.5 (x-mu)' A (x-mu)
    d = [xi - mi for xi, mi in zip(x, mu)]
    total = 0.0
    for i in range(len(d)):
        for j in range(len(d)):
            total += A[i][j] * d[i] * d[j]
    return 0.5 * total


class TestEvalPotential:
    def test_quadratic_minimum(self):
        pot = QuadraticPotential(np.eye(2))
        assert pot.value_cols(np.c_[[0.0, 0.0]])[0] == 0.0

    def test_quadratic_hand_value(self):
        A = [[2.0, 1.0], [1.0, 2.0]]
        pot = QuadraticPotential(A)
        assert pot.value_cols(np.c_[[1.0, 1.0]])[0] == pytest.approx(3.0, abs=1e-14)
        assert pot.value_cols(np.c_[[1.0, 1.0]])[0] == pytest.approx(
            quad_value_independent(A, [0, 0], [1, 1]), abs=1e-14
        )

    def test_perturbed_at_origin(self):
        pot = PerturbedQuadraticPotential([[1.0]], [0.0], [1.0])
        assert pot.value_cols(np.c_[[0.0]])[0] == 0.0


class TestPartialDerivative:
    def test_hand_value(self):
        pot = QuadraticPotential([[2.0, 1.0], [1.0, 2.0]])
        assert pot.partial_cols(0, np.c_[[1.0, 0.5]])[0] == pytest.approx(2.5, abs=1e-14)

    def test_vanishes_at_mean(self):
        pot = QuadraticPotential(np.eye(3), [0.3, -0.7, 2.0])
        for i in range(3):
            assert pot.partial_cols(i, np.c_[[0.3, -0.7, 2.0]])[0] == 0.0

    def test_perturbed_at_origin(self):
        pot = PerturbedQuadraticPotential([[1.0]], [0.0], [1.0])
        assert pot.partial_cols(0, np.c_[[0.0]])[0] == 0.0

    def test_gradient_cols_matches_partial_cols(self, gauss21, perturbed2):
        # the two batch evaluators round differently (measured up to 2.7e-16
        # relative at m=2 and 9.6e-15 at m=30), so they agree to 1e-13
        rng = np.random.default_rng(0)
        A = rng.standard_normal((30, 30))
        big = PerturbedQuadraticPotential(A @ A.T / 30 + np.eye(30), None, rng.random(30))
        for pot in (gauss21, perturbed2, big):
            cols = rng.standard_normal((pot.m, 50)) * 2
            grads = pot.gradient_cols(cols)
            for i in range(pot.m):
                assert pot.partial_cols(i, cols) == pytest.approx(
                    grads[i], rel=1e-13, abs=1e-13
                )


def grad_at_means(pot, i, x_i, other_means):
    """The i-th partial at x_i with the other coordinates at their means.

    For a potential with affine coupling this is the expected i-th partial
    under any product law with those means, the drift the exact variant uses.
    """
    at = np.insert(np.asarray(other_means, dtype=float), i, 0.0)[:, None]
    return float(stochastic_grad_at(pot, at, i, [x_i])[0])


class TestConditionalMeanGradient:
    def test_hand_value(self):
        pot = QuadraticPotential([[2.0, 1.0], [1.0, 2.0]])
        assert grad_at_means(pot, 0, 1.0, [0.5]) == pytest.approx(
            2.5, abs=1e-14
        )

    def test_diagonal_matches_partial(self):
        pot = QuadraticPotential(np.diag([2.0, 3.0]), [0.5, -0.5])
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(2)
            other_mean = rng.standard_normal(1)
            assert grad_at_means(pot, 0, x[0], other_mean) == pytest.approx(
                pot.partial_cols(0, np.c_[x])[0], abs=1e-14
            )

    def test_vanishes_when_means_match(self):
        pot = QuadraticPotential([[2.0, 1.0], [1.0, 2.0]], [1.0, -1.0])
        assert grad_at_means(pot, 1, -1.0, [1.0]) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_missing_capability(self):
        # a potential has no affine coupling unless it declares it, and for
        # one without it the partial at the means is not the expected partial
        class Cubicish(pavi.Potential):
            m = 2
            alpha = 1.0
            lip = 2.0
            third_bound = 1.0

            def value_cols(self, cols):
                return 0.5 * np.sum(np.asarray(cols) ** 2, axis=0)

            def gradient_cols(self, cols):
                return np.asarray(cols, dtype=float)

        assert not Cubicish().affine_coupling
        pot = TanhCoupled(3)
        assert not pot.affine_coupling
        atoms = [np.array([-2.0, 0.5, 2.0]), np.array([1.0, -1.5])]
        for x_i in (-1.0, 0.0, 0.4):
            brute = np.mean([
                pot.partial_cols(1, np.c_[[a, x_i, b]])[0] for a in atoms[0] for b in atoms[1]
            ])
            at_means = grad_at_means(pot, 1, x_i, [a.mean() for a in atoms])
            assert abs(at_means - brute) > 0.01

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_bruteforce_discrete_average(self, m):
        # exhaustive enumeration over all atoms of a discrete product law
        rng = np.random.default_rng(42 + m)
        A = rng.standard_normal((m, m))
        A = A @ A.T + m * np.eye(m)
        mu = rng.standard_normal(m)
        for pot in (
            QuadraticPotential(A, mu),
            PerturbedQuadraticPotential(A, mu, rng.random(m)),
        ):
            assert pot.affine_coupling
            atoms = [rng.standard_normal(rng.integers(2, 6)) for _ in range(m - 1)]
            for i in range(m):
                x_i = float(rng.standard_normal())
                total, count = 0.0, 0
                for combo in itertools.product(*atoms):
                    x = np.empty(m)
                    x[i] = x_i
                    x[[k for k in range(m) if k != i]] = combo
                    total += pot.partial_cols(i, np.c_[x])[0]
                    count += 1
                brute = total / count
                means = [a.mean() for a in atoms]
                assert grad_at_means(pot, i, x_i, means) == pytest.approx(
                    brute, abs=1e-10
                )


class TestConstructionInvariants:
    def test_constants_quadratic(self, gauss21):
        assert gauss21.alpha == pytest.approx(1.0, abs=1e-12)
        assert gauss21.lip == pytest.approx(3.0, abs=1e-12)
        assert gauss21.third_bound == 0.0
        assert gauss21.alpha <= gauss21.lip

    def test_constants_perturbed(self, perturbed2):
        assert perturbed2.alpha == pytest.approx(1.5, abs=1e-12)
        assert perturbed2.lip == pytest.approx(3.5, abs=1e-12)
        assert perturbed2.third_bound == pytest.approx(LOGCOSH_THIRD_SUP, abs=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ConfigError, match="symmetric"):
            QuadraticPotential([[1.0, 0.5], [0.2, 1.0]])

    def test_non_positive_definite_rejected(self):
        with pytest.raises(ConfigError, match="positive definite"):
            QuadraticPotential([[1.0, 2.0], [2.0, 1.0]])

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            PerturbedQuadraticPotential(np.eye(2), None, [1.0, -0.1])

    def test_logcosh_stable(self):
        ts = np.array([-800.0, -1.0, 0.0, 1.0, 800.0])
        vals = logcosh(ts)
        assert np.all(np.isfinite(vals))
        assert vals[2] == 0.0
        assert vals[0] == pytest.approx(800.0 - np.log(2.0))

    def test_third_derivative_sup_constant(self):
        # numerically maximize |d^3/dt^3 log cosh| and compare to the bound
        t = np.linspace(-3, 3, 20001)
        third = np.abs(-2.0 / np.cosh(t) ** 2 * np.tanh(t))
        assert third.max() <= LOGCOSH_THIRD_SUP
        assert third.max() == pytest.approx(4.0 / (3.0 * np.sqrt(3.0)), abs=1e-6)


class TestDerivativeProperties:
    DELTA = 1e-4

    @pytest.mark.parametrize("family", ["quadratic", "perturbed"])
    def test_finite_difference_consistency(self, family, gauss21, perturbed2):
        pot = gauss21 if family == "quadratic" else perturbed2
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((pot.m, 1000)) * 2.0
        grads = pot.gradient_cols(xs)
        for i in range(pot.m):
            shift = np.zeros((pot.m, 1))
            shift[i] = self.DELTA
            fd = (pot.value_cols(xs + shift) - pot.value_cols(xs - shift)) / (
                2 * self.DELTA
            )
            assert np.all(np.abs(grads[i] - fd) <= 1e-6 * (1.0 + np.abs(grads[i])))

    @pytest.mark.parametrize("family", ["quadratic", "perturbed"])
    def test_convexity_sandwich(self, family, gauss21, perturbed2):
        pot = gauss21 if family == "quadratic" else perturbed2
        rng = np.random.default_rng(8)
        delta = 1e-5
        xs = rng.standard_normal((pot.m, 1000)) * 2.0
        us = rng.standard_normal((pot.m, 1000))
        us /= np.linalg.norm(us, axis=0, keepdims=True)
        quot = (
            np.einsum(
                "ik,ik->k", us, pot.gradient_cols(xs + delta * us) - pot.gradient_cols(xs)
            )
            / delta
        )
        assert quot.min() >= pot.alpha - 1e-3
        assert quot.max() <= pot.lip + 1e-3

    @pytest.mark.parametrize("family", ["quadratic", "perturbed"])
    def test_partials_over_contexts_into_out(self, family, gauss21, perturbed2):
        # the in-place form the run's step uses gives the allocating form's bits
        pot = gauss21 if family == "quadratic" else perturbed2
        rng = np.random.default_rng(10)
        points = rng.standard_normal((1, pot.m, 257)) * 3.0
        contexts = rng.standard_normal((1, pot.m, 5))
        buf = np.full_like(points, np.nan)
        got = pot.partials_over_contexts(points, contexts, out=buf)
        assert got is buf
        assert np.array_equal(buf, pot.partials_over_contexts(points, contexts))

    def test_batched_evaluators_closed_form(self):
        # V = 0.5 (x-mu)' A (x-mu) + sum_i c_i logcosh(x_i) and its gradient
        # A (x-mu) + c tanh(x), evaluated column by column with plain loops
        A = [[3.0, 1.0, 0.5], [1.0, 2.5, -0.7], [0.5, -0.7, 2.0]]
        mu, c = [0.2, -0.4, 0.1], [0.5, 0.0, 1.0]
        pot = PerturbedQuadraticPotential(A, mu, c)
        rng = np.random.default_rng(9)
        cols = rng.standard_normal((3, 40)) * 2
        vals = pot.value_cols(cols)
        grads = pot.gradient_cols(cols)
        for k in range(40):
            x = cols[:, k]
            value = quad_value_independent(A, mu, x) + sum(
                ci * np.log(np.cosh(xi)) for ci, xi in zip(c, x)
            )
            assert vals[k] == pytest.approx(value, rel=1e-14)
            for i in range(3):
                grad = sum(A[i][j] * (x[j] - mu[j]) for j in range(3))
                grad += c[i] * np.tanh(x[i])
                assert grads[i, k] == pytest.approx(grad, rel=1e-13, abs=1e-13)


class TestConfigLoading:
    def test_round_trip(self, perturbed2):
        doc = perturbed2.to_config()
        again = potential_from_config(doc)
        assert isinstance(again, PerturbedQuadraticPotential)
        assert potential_fingerprint(again) == potential_fingerprint(perturbed2)

    def test_flat_row_major_matrix(self):
        pot = potential_from_config(
            {"family": "quadratic", "precision": [2.0, 1.0, 1.0, 2.0]}
        )
        assert pot.m == 2
        assert pot.alpha == pytest.approx(1.0)

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="family"):
            potential_from_config({"family": "bogus", "precision": [[1.0]]})

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="missing"):
            potential_from_config({"family": "quadratic"})

    def test_claimed_constants_wrap(self, gauss21):
        doc = gauss21.to_config()
        doc["claimed"] = {"lip": 1.5}
        pot = potential_from_config(doc)
        assert type(pot) is QuadraticPotential
        assert pot.lip == 1.5
        assert pot.alpha == gauss21.alpha
        assert pot.third_bound == gauss21.third_bound
        cols = np.array([[0.4, -1.0], [0.6, 2.0]])
        assert np.array_equal(pot.value_cols(cols), gauss21.value_cols(cols))
        assert pot.affine_coupling
        assert np.array_equal(pot.partial_cols(0, cols), gauss21.partial_cols(0, cols))
        assert pot.to_config()["claimed"] == {
            "alpha": gauss21.alpha, "lip": 1.5, "third_bound": 0.0
        }
        assert "claimed" not in gauss21.to_config()

    def test_claimed_constants_validated(self, gauss21):
        doc = gauss21.to_config()
        doc["claimed"] = {"alpha": 2.0, "lip": 1.0}
        with pytest.raises(ConfigError, match="alpha <= lip"):
            potential_from_config(doc)

    def test_empty_claimed_is_unclaimed(self, gauss21):
        # a null or empty claimed section overrides nothing, as an absent one
        for claimed in (None, {}):
            pot = potential_from_config(dict(gauss21.to_config(), claimed=claimed))
            assert not pot.claimed and pot.lip == gauss21.lip
            assert potential_fingerprint(pot) == potential_fingerprint(gauss21)

    def test_claimed_fingerprints_unchanged(self, gauss21, perturbed2):
        # digests of claimed configs as written before the claimed section
        # became an override of the built potential's constants
        quad = dict(gauss21.to_config(), claimed={"alpha": 0.9, "lip": 3.2})
        pert = dict(perturbed2.to_config(), claimed={"lip": 3.6})
        assert potential_fingerprint(potential_from_config(quad)) == "77387ab0d2f990da"
        assert potential_fingerprint(potential_from_config(pert)) == "535f05400578f3c6"
