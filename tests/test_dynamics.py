import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pavi
import pavi.harness
import pavi.reports
from pavi import (
    ConfigError,
    GaussianMarginal,
    GridDensity,
    ParticleArray,
    PerturbedQuadraticPotential,
    QuadraticPotential,
    ReferenceProduct,
    RngStream,
    RunConfig,
    corollary_schedule,
    exact_step,
    gaussian_mfvi_solution,
    init_particles,
    pavi_step,
    run,
    sample_product,
    validate_config,
    w2_reference_profile,
)
from pavi.dynamics import _draw, _step_parts, read_checkpoint, stochastic_grad_at
from pavi.errors import DivergenceError
from pavi.reports import encode_f8

from conftest import AD_CRIT_1E3, TanhCoupled, anderson_darling_normal, exact_row


class TestValidateConfig:
    def test_batch_bound_violated(self, gauss21):
        cfg = RunConfig(N=16, T=10, h=0.05, B=1, schedule="explicit")
        with pytest.raises(ConfigError) as err:
            validate_config(gauss21, cfg)
        msg = str(err.value)
        assert "0.5" in msg and "0.0277778" in msg

    def test_valid_step(self, gauss21):
        cfg = RunConfig(N=16, T=10, h=0.02, B=1, schedule="explicit")
        assert validate_config(gauss21, cfg) == (0.02, 1)

    def test_zero_step_rejected(self):
        pot = QuadraticPotential(np.eye(2))
        cfg = RunConfig(N=16, T=10, h=0.0, B=10**6, schedule="explicit")
        with pytest.raises(ConfigError, match="0 < h"):
            validate_config(pot, cfg)

    def test_boundary_equality_rejected(self, gauss21):
        cfg = RunConfig(N=16, T=10, h=1.0 / 36.0, B=1, schedule="explicit")
        with pytest.raises(ConfigError):
            validate_config(gauss21, cfg)

    def test_single_particle_rejected(self, gauss21):
        cfg = RunConfig(N=1, T=10, h=0.01, B=4, schedule="explicit")
        with pytest.raises(ConfigError, match="N >= 2"):
            validate_config(gauss21, cfg)

    def test_corollary_derives(self, gauss21):
        cfg = RunConfig(N=16, T=10, schedule="corollary")
        h, B = validate_config(gauss21, cfg)
        assert (h, B) == corollary_schedule(gauss21.lip, 16)

    def test_corollary_rejects_supplied_h(self, gauss21):
        cfg = RunConfig(N=16, T=10, h=0.01, schedule="corollary")
        with pytest.raises(ConfigError, match="derive"):
            validate_config(gauss21, cfg)

    def test_exact_without_batch(self, gauss21):
        cfg = RunConfig(N=16, T=10, h=0.3, schedule="explicit", algorithm="exact")
        h, B = validate_config(gauss21, cfg)
        assert B is None
        cfg_bad = RunConfig(N=16, T=10, h=0.6, schedule="explicit", algorithm="exact")
        with pytest.raises(ConfigError):
            validate_config(gauss21, cfg_bad)

    def test_exact_takes_no_batch(self, gauss21):
        cfg = RunConfig(N=16, T=10, h=0.3, B=4, schedule="explicit", algorithm="exact")
        with pytest.raises(ConfigError, match="the exact algorithm takes no batch size B"):
            validate_config(gauss21, cfg)
        cfg = RunConfig(N=16, T=10, schedule="corollary", algorithm="exact")
        assert validate_config(gauss21, cfg) == (corollary_schedule(gauss21.lip, 16)[0], None)


class TestCorollarySchedule:
    def test_examples(self):
        assert corollary_schedule(1.0, 16) == (0.5, 2)
        assert corollary_schedule(2.0, 16) == (0.25, 2)
        h, B = corollary_schedule(1.0, 81)
        assert h == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert B == 3

    def test_batch_ceils_quarter_root(self):
        for N in (2, 10, 100, 5000):
            h, B = corollary_schedule(1.7, N)
            assert h == pytest.approx(1.0 / (1.7 * N**0.25))
            assert B == int(np.ceil(N**0.25 - 1e-9))

    def test_small_N_rejected(self):
        with pytest.raises(ConfigError):
            corollary_schedule(1.0, 1)


def per_context(pot, z, i, x):
    """The partials at x against each context column, whose mean is the estimate."""
    cols = np.array(z, dtype=float)
    cols[i] = x
    return pot.partial_cols(i, cols)


def mean_context(z):
    return z.mean(axis=1, keepdims=True)


def grad_at(pot, z, i, x):
    return float(stochastic_grad_at(pot, z, i, [x])[0])


@st.composite
def affine_cases(draw):
    """A random potential of either built-in family, contexts, and points per row."""
    m = draw(st.integers(1, 5))
    B = draw(st.integers(1, 9))
    unit = st.floats(-1.0, 1.0)
    M = draw(arrays(np.float64, (m, m), elements=unit))
    A = M @ M.T
    A = 0.5 * (A + A.T) + 0.5 * np.eye(m)
    mean = draw(arrays(np.float64, m, elements=st.floats(-3.0, 3.0)))
    if draw(st.booleans()):
        weights = draw(arrays(np.float64, m, elements=st.floats(0.0, 2.0)))
        pot = PerturbedQuadraticPotential(A, mean, weights)
    else:
        pot = QuadraticPotential(A, mean)
    z = draw(arrays(np.float64, (m, B), elements=st.floats(-10.0, 10.0)))
    K = draw(st.integers(1, 6))
    values = draw(arrays(np.float64, (m, K), elements=st.floats(-10.0, 10.0)))
    return pot, z, values


@st.composite
def stacked_affine_cases(draw):
    """An affine case with R = 1 to 3 replications of its contexts and points."""
    pot, z, values = draw(affine_cases())
    entries = st.floats(-10.0, 10.0)
    more = range(draw(st.integers(1, 3)) - 1)
    zs = [z] + [draw(arrays(np.float64, z.shape, elements=entries)) for _ in more]
    vs = [values] + [draw(arrays(np.float64, values.shape, elements=entries)) for _ in more]
    return pot, np.stack(zs), np.stack(vs)


def product_columns(z, i):
    """Every combination of one atom from each row k != i of z, as columns.

    Row i is a placeholder that the averaged partial overwrites.
    """
    m, B = z.shape
    others = [z[k] for k in range(m) if k != i]
    grid = np.array([g.ravel() for g in np.meshgrid(*others, indexing="ij")])
    return np.insert(grid.reshape(m - 1, B ** (m - 1)), i, 0.0, axis=0)


class TestStochasticGrad:
    def test_one_dim_exact(self):
        pot = QuadraticPotential([[2.0]], [0.5])
        z = np.zeros((1, 17))
        x = 1.25
        assert grad_at(pot, z, 0, x) == pytest.approx(
            pot.partial_cols(0, np.c_[[x]])[0], abs=1e-15
        )

    def test_hand_average(self, gauss21_centered):
        z = np.array([[9.9, -9.9], [0.0, 1.0]])  # first row is replaced
        assert grad_at(gauss21_centered, z, 0, 1.0) == pytest.approx(2.5, abs=1e-14)

    def test_expectation_equals_exact_by_enumeration(self, gauss21_centered):
        # average the estimator over every atom of the context marginal
        X = ParticleArray([[0.1, -0.4, 0.9], [1.0, 2.0, -0.5]])
        x = 0.7
        vals = [
            grad_at(gauss21_centered, np.array([[0.0], [atom]]), 0, x)
            for atom in X.values[1]
        ]
        exact = exact_row(gauss21_centered, X, 0, [x])[0]
        assert np.mean(vals) == pytest.approx(exact, abs=1e-12)

    def test_vectorized_matches_scalar(self, perturbed2):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((2, 5))
        xs = rng.standard_normal(7)
        vec = stochastic_grad_at(perturbed2, z, 1, xs)
        for k, x in enumerate(xs):
            brute = np.mean(
                [perturbed2.partial_cols(1, np.c_[[z[0, b], x]])[0] for b in range(5)]
            )
            assert vec[k] == pytest.approx(brute, rel=1e-14, abs=1e-14)

    def test_context_shape_checked(self, gauss21):
        for bad in (np.zeros((3, 4)), np.zeros((3, 1)), np.zeros(2)):
            with pytest.raises(ConfigError):
                stochastic_grad_at(gauss21, bad, 0, [0.0])
        with pytest.raises(ConfigError, match="out of range"):
            stochastic_grad_at(gauss21, np.zeros((2, 4)), 2, [0.0])

    @settings(max_examples=200, deadline=None)
    @given(affine_cases())
    def test_affine_coupling_average_equals_mean_context(self, case):
        pot, z, values = case
        assert pot.affine_coupling
        # the family's drift hook, checked row by row
        hook = pot.partials_over_contexts(values[None], z[None])[0]
        assert hook.shape == values.shape
        for i, xs in enumerate(values):
            full = stochastic_grad_at(pot, z, i, xs)
            reduced = stochastic_grad_at(pot, mean_context(z), i, xs)
            # relative to the size of the averaged terms, so that a near-zero
            # average of large partials is held to the rounding of those partials
            scale = max(1.0, max(np.max(np.abs(per_context(pot, z, i, x))) for x in xs))
            np.testing.assert_allclose(reduced, full, rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(hook[i], full, rtol=1e-12, atol=1e-12 * scale)

    @settings(max_examples=200, deadline=None)
    @given(stacked_affine_cases(), st.booleans())
    def test_affine_hook_over_stacked_contexts_equals_generic_route(self, case, product):
        # the drift hook on (R, m, K) points and (R, m, B) contexts, against
        # the average of each row's partials over the contexts' columns: the
        # batch's, or every combination of the other rows' atoms
        pot, z, values = case
        hook = pot.partials_over_contexts(values, z, product=product)
        assert hook.shape == values.shape
        # the base class's route, which averages over every context column
        out = np.empty_like(values)
        assert pavi.Potential.partials_over_contexts(pot, values, z, product, out) is out
        for r, i in np.ndindex(*values.shape[:2]):
            cols = product_columns(z[r], i) if product else z[r]
            xs = values[r, i]
            generic = stochastic_grad_at(pot, cols, i, xs)
            assert np.array_equal(out[r, i], generic)
            scale = max(1.0, max(np.max(np.abs(per_context(pot, cols, i, x))) for x in xs))
            np.testing.assert_allclose(hook[r, i], generic, rtol=1e-12, atol=1e-12 * scale)


class TestExactMeanFieldGrad:
    def test_hand_value_both_paths(self, gauss21_centered):
        X = ParticleArray([[5.0, -5.0], [0.0, 1.0]])
        got = exact_row(gauss21_centered, X, 0, [1.0])[0]
        assert got == pytest.approx(2.5, abs=1e-14)
        brute = exact_row(gauss21_centered, X, 0, [1.0], generic=True)[0]
        assert brute == pytest.approx(2.5, abs=1e-14)

    def test_one_dim(self):
        X = init_particles(1, 5, "standard_normal", 0)
        for pot in (QuadraticPotential([[3.0]], [0.2]), TanhCoupled(1)):
            assert exact_row(pot, X, 0, [1.0])[0] == pytest.approx(
                pot.partial_cols(0, np.c_[[1.0]])[0], abs=1e-15
            )

    def test_exhaustive_matches_capability_perturbed(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 3))
        A = A @ A.T + 3 * np.eye(3)
        pot = PerturbedQuadraticPotential(A, rng.standard_normal(3), rng.random(3))
        X = init_particles(3, 5, "standard_normal", 2)
        for i in range(3):
            xs = rng.standard_normal(4)
            np.testing.assert_allclose(
                exact_row(pot, X, i, xs),
                exact_row(pot, X, i, xs, generic=True),
                rtol=0, atol=1e-10,
            )

    def test_exhaustive_matches_bruteforce_non_affine(self):
        pot = TanhCoupled(3)
        X = init_particles(3, 4, "standard_normal", 6)
        xs = np.array([-0.8, 0.1, 1.3])
        for i in range(3):
            first, second = (X.values[k] for k in range(3) if k != i)
            brute = [
                np.mean([
                    pot.partial_cols(i, np.c_[np.insert([a, b], i, x)])[0]
                    for a in first for b in second
                ])
                for x in xs
            ]
            np.testing.assert_allclose(
                exact_row(pot, X, i, xs), brute, rtol=1e-13, atol=1e-13
            )

    def test_scale_gate(self):
        X = init_particles(4, 200, "standard_normal", 0)
        affine = QuadraticPotential(np.eye(4) + 0.05)
        with pytest.raises(ConfigError, match="stochastic"):
            exact_row(affine, X, 0, [0.0], generic=True)
        cfg = RunConfig(N=200, T=1, h=0.01, schedule="explicit", algorithm="exact")
        with pytest.raises(ConfigError, match="stochastic"):
            run(TanhCoupled(4), cfg)
        # the affine family's own hook has no gate: the partial at the means
        at_means = np.insert(X.values[1:].mean(axis=1), 0, 0.3)
        assert exact_row(affine, X, 0, [0.3])[0] == pytest.approx(
            affine.partial_cols(0, np.c_[at_means])[0], abs=1e-14
        )


def noise_rows(rng, n, h, m, N):
    """The scaled noise step n adds, rebuilt from its counter-addressed stream."""
    return np.sqrt(2 * h) * rng.generator(n, "noise").standard_normal((m, N))


class TestSteps:
    def test_drift_only_one_dim(self):
        # the drift at x = 1 is exactly 1, so the step is (1 - h) plus noise
        pot = QuadraticPotential([[1.0]], [0.0])
        X = ParticleArray([[1.0, 1.0]])
        h = 0.3
        out = pavi_step(pot, X, h, 2, RngStream(0), 0)
        assert np.array_equal(out.values, (1.0 - h) + noise_rows(RngStream(0), 0, h, 1, 2))

    def test_fixed_point_at_minimizer(self):
        # zero drift: the step adds exactly its noise
        pot = QuadraticPotential(np.diag([2.0, 0.5]), [1.0, -2.0])
        X = init_particles(2, 6, ("point", [1.0, -2.0]))
        out = pavi_step(pot, X, 0.1, 3, RngStream(1), 0)
        assert np.array_equal(out.values, X.values + noise_rows(RngStream(1), 0, 0.1, 2, 6))

    @pytest.mark.parametrize("algorithm", ["pavi", "exact"])
    def test_step_keeps_the_bits_of_a_step_with_grad_rms(self, algorithm):
        # the public steps compute no grad_rms; their state is the one a step
        # that computes it gives on the same draws
        pot, _ = equivalence_case("perturbed_quadratic")
        X = init_particles(pot.m, 16, "standard_normal", 3)
        h, B = 0.05, (4 if algorithm == "pavi" else None)
        if algorithm == "pavi":
            out = pavi_step(pot, X, h, B, RngStream(7), 11)
        else:
            out = exact_step(pot, X, h, RngStream(7), 11)
        new, drift, noise = (np.empty((1, pot.m, 16)) for _ in range(3))
        rng = RngStream(7)
        contexts = _draw([rng], [rng.generator()], 11, B, noise)
        with np.errstate(over="ignore", invalid="ignore"):
            full, grad_rms = _step_parts(pot, X, h, [rng], 11, contexts, new, drift, noise, True)
        assert isinstance(grad_rms[0], float) and math.isfinite(grad_rms[0])
        assert out.values.tobytes() == full.values.tobytes()

    def test_step_determinism(self, gauss21):
        X = init_particles(2, 4, "standard_normal", 3)
        a = pavi_step(gauss21, X, 0.02, 2, RngStream(5), 7)
        b = pavi_step(gauss21, X, 0.02, 2, RngStream(5), 7)
        assert np.array_equal(a.values, b.values)

    def reconstruct_pavi_step(self, pot, X, h, B, rng, n, reduce):
        z = sample_product(X, B, rng.generator(n, "context"))
        if reduce:
            # the affine family's hook: the partial at the batch's mean column
            grads = pot.partials_over_contexts(X.values[None], z[None])[0]
        else:
            grads = [stochastic_grad_at(pot, z, i, X.values[i]) for i in range(X.m)]
        manual = np.empty_like(X.values)
        xi = rng.generator(n, "noise").standard_normal((X.m, X.N))
        for i in range(X.m):
            manual[i] = X.values[i] - h * grads[i] + np.sqrt(2 * h) * xi[i]
        return manual

    def test_step_matches_manual_reconstruction(self, gauss21):
        # an affine-coupled potential steps against the batch's mean column
        X = init_particles(2, 8, "standard_normal", 11)
        stepped = pavi_step(gauss21, X, 0.05, 3, RngStream(9), 4)
        manual = self.reconstruct_pavi_step(gauss21, X, 0.05, 3, RngStream(9), 4, True)
        assert np.array_equal(manual, stepped.values)

    def test_step_matches_manual_reconstruction_non_affine(self):
        # any other potential steps against the full batch
        pot = TanhCoupled(2)
        X = init_particles(2, 8, "standard_normal", 11)
        stepped = pavi_step(pot, X, 0.05, 3, RngStream(9), 4)
        manual = self.reconstruct_pavi_step(pot, X, 0.05, 3, RngStream(9), 4, False)
        assert np.array_equal(manual, stepped.values)

    def test_exact_step_equals_pavi_for_diagonal(self):
        # decoupled coordinates: the contexts are irrelevant
        pot = QuadraticPotential(np.diag([2.0, 1.0]), [0.0, 3.0])
        X = init_particles(2, 5, "standard_normal", 4)
        a = pavi_step(pot, X, 0.1, 3, RngStream(2), 0)
        b = exact_step(pot, X, 0.1, RngStream(2), 0)
        assert np.allclose(a.values, b.values, atol=1e-14)

    def check_shared_noise(self, pot, reduce):
        X = init_particles(2, 6, "standard_normal", 8)
        rng, h, B, n = RngStream(3), 0.05, 4, 2
        a = pavi_step(pot, X, h, B, rng, n)
        b = exact_step(pot, X, h, rng, n)
        z = sample_product(X, B, rng.generator(n, "context"))
        if reduce:
            # the affine family's hook: the partial at the batch's mean column
            grads_a = pot.partials_over_contexts(X.values[None], z[None])[0]
        else:
            grads_a = [stochastic_grad_at(pot, z, i, X.values[i]) for i in range(2)]
        # the exact step is rebuilt from the rows the exhaustive tests above check
        grads_b = [exact_row(pot, X, i, X.values[i]) for i in range(2)]
        noise = noise_rows(rng, n, h, 2, 6)
        for i in range(2):
            drift_a = X.values[i] - h * grads_a[i]
            drift_b = X.values[i] - h * grads_b[i]
            assert np.array_equal(a.values[i], drift_a + noise[i])
            assert np.array_equal(b.values[i], drift_b + noise[i])

    def test_exact_step_shares_noise_with_pavi(self, gauss21):
        self.check_shared_noise(gauss21, True)

    def test_exact_step_shares_noise_with_pavi_non_affine(self):
        self.check_shared_noise(TanhCoupled(2), False)

    def test_batch_noise_shrinks_like_inverse_sqrt_B(self, gauss21_centered):
        # with shared noise the step difference is h * batch error;
        # quadrupling B should halve its RMS
        pot = gauss21_centered
        h = 0.05
        rms = {}
        for B in (16, 64, 256):
            sq = 0.0
            count = 0
            for rep in range(200):
                X = init_particles(2, 16, "standard_normal", 1000 + rep)
                rng = RngStream(rep)
                a = pavi_step(pot, X, h, B, rng, 0)
                b = exact_step(pot, X, h, rng, 0)
                d = a.values - b.values
                sq += float(np.sum(d * d))
                count += d.size
            rms[B] = np.sqrt(sq / count)
        r1 = rms[16] / rms[64]
        r2 = rms[64] / rms[256]
        assert 2.0 / 1.3 <= r1 <= 2.0 * 1.3
        assert 2.0 / 1.3 <= r2 <= 2.0 * 1.3

    def test_divergence_reports_location(self):
        pot = QuadraticPotential([[1.0]], [0.0])
        X = ParticleArray([[1e300, 0.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError) as err:
                # step large enough to overflow the drift
                pavi_step(pot, X, 1e60, 1, RngStream(3), 5)
        assert err.value.iteration == 5
        assert err.value.coordinate == 0
        assert err.value.seed == 3


class ZeroDrift(TanhCoupled):
    """A non-affine stub whose drift hook returns zeros; it records each call."""

    def __init__(self, m):
        super().__init__(m)
        self.calls = []

    def partials_over_contexts(self, points, contexts, product=False, out=None):
        self.calls.append((points.shape, contexts.shape, product))
        out = np.empty(points.shape) if out is None else out
        out[...] = 0.0
        return out


class TestDriftHook:
    """Every step takes its drift from one call of partials_over_contexts."""

    def test_steps_take_the_hook_drift(self):
        pot, h = ZeroDrift(2), 0.05
        X = init_particles(2, 6, "standard_normal", 8)
        noise = noise_rows(RngStream(3), 2, h, 2, 6)
        a = pavi_step(pot, X, h, 4, RngStream(3), 2)
        b = exact_step(pot, X, h, RngStream(3), 2)
        assert np.array_equal(a.values, X.values + noise)
        assert np.array_equal(b.values, X.values + noise)
        assert pot.calls == [((1, 2, 6), (1, 2, 4), False), ((1, 2, 6), (1, 2, 6), True)]

    @pytest.mark.parametrize("algorithm", ["pavi", "exact"])
    def test_run_takes_the_hook_drift(self, tmp_path, algorithm):
        pot, h, T = ZeroDrift(3), 0.02, 4
        B = 2 if algorithm == "pavi" else None
        cfg = RunConfig(N=8, T=T, h=h, B=B, schedule="explicit", algorithm=algorithm, seed=6)
        path = tmp_path / "checkpoint.json"
        run(pot, cfg, checkpoint_path=path)
        expected = init_particles(3, 8, "standard_normal", 6).values
        for n in range(T):
            expected = expected + noise_rows(RngStream(6), n, h, 3, 8)
        assert np.array_equal(read_checkpoint(path)[1].values, expected)
        contexts = (1, 3, 8 if B is None else B)
        assert pot.calls == [((1, 3, 8), contexts, B is None)] * T

    def test_dynamics_does_not_read_the_coupling_flag(self):
        # how to average over contexts is the potential's decision
        source = Path(pavi.dynamics.__file__).read_text()
        assert "affine_coupling" not in source


class TestEstimatorStatistics:
    def test_unbiasedness_small_case(self, perturbed2):
        # Monte Carlo mean of single-context estimates vs the exact average
        X = init_particles(2, 3, "standard_normal", 21)
        draws = 20_000
        gen = RngStream(100).generator(0, "context")
        z = sample_product(X, draws, gen)
        for i in range(2):
            for x in (-0.5, 0.8):
                vals = per_context(perturbed2, z, i, x)
                exact = exact_row(perturbed2, X, i, [x])[0]
                se = vals.std(ddof=1) / np.sqrt(draws)
                assert abs(vals.mean() - exact) <= 4.0 * se

    def test_variance_scaling(self, gauss21):
        X = init_particles(2, 4, "standard_normal", 33)
        draws = 100_000
        gen = RngStream(7).generator(0, "context")
        x, i = 0.9, 0
        z1 = sample_product(X, draws, gen)
        var1 = per_context(gauss21, z1, i, x).var(ddof=1)
        z16 = sample_product(X, draws * 16, gen)
        est16 = per_context(gauss21, z16, i, x).reshape(draws, 16).mean(axis=1)
        var16 = est16.var(ddof=1)
        assert 16 / 1.5 <= var1 / var16 <= 16 * 1.5

    def test_contraction_map(self, gauss21, perturbed2):
        for pot in (gauss21, perturbed2):
            h = 1.0 / (pot.alpha + pot.lip)
            rng = np.random.default_rng(17)
            xs = rng.standard_normal((pot.m, 1000)) * 3
            ys = rng.standard_normal((pot.m, 1000)) * 3
            phi_x = xs - h * pot.gradient_cols(xs)
            phi_y = ys - h * pot.gradient_cols(ys)
            lhs = np.linalg.norm(phi_x - phi_y, axis=0)
            rhs = (1 - pot.alpha * h) * np.linalg.norm(xs - ys, axis=0)
            assert np.all(lhs <= rhs + 1e-12)

    def test_exchangeability_of_particle_labels(self, gauss21):
        ref = gaussian_mfvi_solution(gauss21)
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((2, 32))
        permuted = np.vstack([rng.permutation(row) for row in vals])
        per_a, a = w2_reference_profile(ParticleArray(vals), ref)
        per_b, b = w2_reference_profile(ParticleArray(permuted), ref)
        assert np.array_equal(per_a, per_b)
        assert a == b

    def test_noise_rows_normality(self):
        # pool the exact noise draws a short run consumes
        rng = RngStream(123)
        draws = np.concatenate(
            [rng.generator(n, "noise").standard_normal((2, 64)).ravel() for n in range(50)]
        )
        assert anderson_darling_normal(draws) < AD_CRIT_1E3


class Crash(Exception):
    pass


class Lying(pavi.Potential):
    """A potential whose declared constants hide an expanding field.

    The iterates grow faster than exponentially until the drift overflows,
    while every drift before that one stays finite when squared.
    """

    m = 1
    alpha = 0.5
    lip = 1.0
    third_bound = 0.0

    def partial_cols(self, i, cols):
        return -np.exp(np.asarray(cols, dtype=float)[i])

    def to_config(self):
        return {"family": "test-lying"}


def crash_at(iteration):
    """A sink that stops a run, as a crash would, when a row is recorded."""

    def sink(row):
        if row.iteration == iteration:
            raise Crash(iteration)

    return sink


class TestRun:
    def test_zero_iterations_initial_metric_only(self, gauss21):
        ref = gaussian_mfvi_solution(gauss21)
        cfg = RunConfig(N=16, T=0, schedule="corollary", seed=0)
        report = run(gauss21, cfg, ref)
        assert len(report.rows) == 1
        assert report.rows[0].iteration == 0
        assert report.rows[0].w2_total is not None

    def test_row_cadence(self, gauss21):
        ref = gaussian_mfvi_solution(gauss21)
        cfg = RunConfig(N=16, T=47, schedule="corollary", seed=0, metrics_every=10)
        report = run(gauss21, cfg, ref)
        assert [r.iteration for r in report.rows] == [0, 10, 20, 30, 40, 47]

    def test_monotone_trend(self, gauss21):
        ref = gaussian_mfvi_solution(gauss21)
        cfg = RunConfig(N=256, T=600, schedule="corollary", seed=1, metrics_every=10)
        report = run(gauss21, cfg, ref)
        vals = [r.w2_total for r in report.rows]
        early = np.mean(vals[:3])
        late = np.mean(vals[-15:])
        assert late < early

    def test_exact_algorithm_runs(self, gauss21):
        ref = gaussian_mfvi_solution(gauss21)
        cfg = RunConfig(
            N=64, T=100, schedule="corollary", seed=2, algorithm="exact",
            metrics_every=10,
        )
        report = run(gauss21, cfg, ref)
        assert report.summary["final_w2"] < report.rows[0].w2_total

    def test_checkpoint_resume_bit_identical(self, gauss21, tmp_path):
        ref = gaussian_mfvi_solution(gauss21)
        cfg = RunConfig(N=24, T=40, schedule="corollary", seed=9, metrics_every=5)
        full = run(gauss21, cfg, ref)
        ck = tmp_path / "ck.json"
        # checkpoints at 7, 14, 21; the crash at row 25 resumes from 21,
        # between two metrics rows
        with pytest.raises(Crash):
            run(gauss21, cfg, ref, crash_at(25), checkpoint_path=ck, checkpoint_every=7)
        assert read_checkpoint(ck)[0]["next_iteration"] == 21
        resumed = run(gauss21, cfg, ref, checkpoint_path=ck, resume=True)
        assert resumed.metrics_lines() == full.metrics_lines()

    def test_interrupted_checkpoint_write_keeps_previous(
        self, gauss21, tmp_path, monkeypatch
    ):
        ref = gaussian_mfvi_solution(gauss21)
        cfg = RunConfig(N=24, T=40, schedule="corollary", seed=9, metrics_every=5)
        full = run(gauss21, cfg, ref)
        ck = tmp_path / "ck.json"
        calls = []

        class HalfWrite:
            """The file of the second write: half its first chunk, then a crash."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, chunk):
                self.f.write(chunk[: len(chunk) // 2])
                raise OSError("simulated crash during the write")

        def crash_mid_second_write(path, mode="r", *args, **kwargs):
            f = open(path, mode, *args, **kwargs)
            calls.append(path)
            return HalfWrite(f) if len(calls) == 2 else f

        monkeypatch.setattr(pavi.reports, "open", crash_mid_second_write, raising=False)
        with pytest.raises(OSError, match="simulated"):
            run(gauss21, cfg, ref, checkpoint_path=ck, checkpoint_every=10)
        monkeypatch.undo()
        assert json.loads(ck.read_text())["next_iteration"] == 10
        resumed = run(gauss21, cfg, ref, checkpoint_path=ck, resume=True)
        assert resumed.metrics_lines() == full.metrics_lines()

    def test_resume_rejects_other_config(self, gauss21, tmp_path):
        ref = gaussian_mfvi_solution(gauss21)
        cfg = RunConfig(N=24, T=40, schedule="corollary", seed=9, metrics_every=5)
        ck = tmp_path / "ck.json"
        with pytest.raises(Crash):
            run(gauss21, cfg, ref, crash_at(15), checkpoint_path=ck, checkpoint_every=10)
        other = RunConfig(N=24, T=50, schedule="corollary", seed=9, metrics_every=5)
        with pytest.raises(ConfigError, match="different run configuration"):
            run(gauss21, other, ref, checkpoint_path=ck, resume=True)

    def test_divergence_keeps_last_checkpoint(self, tmp_path):
        pot = Lying()
        cfg = RunConfig(N=4, T=2000, h=0.2, B=2, schedule="explicit", seed=0, metrics_every=1000)
        ck = tmp_path / "ck.json"
        init = np.full((1, 4), 1.0)
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError) as err:
                run(pot, cfg, init=init, checkpoint_path=ck)
        diverged = err.value.iteration
        assert diverged > 2  # both of the run's state arrays were in use
        doc, kept = read_checkpoint(ck)
        assert np.all(np.isfinite(kept.values))
        assert doc["next_iteration"] == diverged
        # the kept state is the one the same run reaches when it stops there
        stopped = tmp_path / "stopped.json"
        cfg_stop = RunConfig(
            N=4, T=diverged, h=0.2, B=2, schedule="explicit", seed=0, metrics_every=1000
        )
        run(pot, cfg_stop, init=init, checkpoint_path=stopped)
        assert np.array_equal(read_checkpoint(stopped)[1].values, kept.values)
        assert np.all(init == 1.0)

    def test_checkpoints_hold_the_rows_up_to_their_iteration(
        self, gauss21, tmp_path, monkeypatch
    ):
        # a run keeps its records as lists until a checkpoint needs rows: each
        # checkpoint written mid-run holds exactly the final report's rows up
        # to its next_iteration, and one wall time per row
        ref = gaussian_mfvi_solution(gauss21)
        cfg = RunConfig(N=16, T=10, schedule="corollary", seed=3, metrics_every=2)
        ck = tmp_path / "ck.json"
        written = []
        write = pavi.dynamics._write_checkpoint

        def write_and_read(path, *args):
            write(path, *args)
            written.append(json.loads(Path(path).read_text()))

        monkeypatch.setattr(pavi.dynamics, "_write_checkpoint", write_and_read)
        report = run(gauss21, cfg, ref, checkpoint_path=ck, checkpoint_every=3)
        assert [doc["next_iteration"] for doc in written] == [3, 6, 9, 10]
        for doc in written:
            rows = [r.to_dict() for r in report.rows if r.iteration <= doc["next_iteration"]]
            assert doc["rows"] == rows
            assert len(doc["wall_times"]) == len(rows)
        assert [len(doc["rows"]) for doc in written] == [2, 4, 5, 6]

    @pytest.mark.parametrize("seeds", [None, [5, 6, 7]], ids=["single", "stacked"])
    @pytest.mark.parametrize("where", ["total", "coordinate"])
    def test_non_finite_w2_is_reported_at_its_record(self, gauss21, monkeypatch, where, seeds):
        # the fourth record, at iteration 6, reads inf in its last replication
        profile = pavi.dynamics.w2_reference_profile
        calls = []

        def spoiled(*args, **kwargs):
            per, total = profile(*args, **kwargs)
            calls.append(None)
            if len(calls) == 4:
                if where == "total":
                    total[-1] = math.inf
                else:
                    per[-1, -1] = math.inf
            return per, total

        monkeypatch.setattr(pavi.dynamics, "w2_reference_profile", spoiled)
        cfg = RunConfig(N=16, T=10, schedule="corollary", seed=0, metrics_every=2)
        with pytest.raises(ConfigError, match=r"^non-finite diagnostic at iteration 6$"):
            run(gauss21, cfg, gaussian_mfvi_solution(gauss21), seeds=seeds)
        assert len(calls) == 4

    def test_sink_receives_rows(self, gauss21):
        ref = gaussian_mfvi_solution(gauss21)
        seen = []
        cfg = RunConfig(N=16, T=20, schedule="corollary", seed=0, metrics_every=5)
        run(gauss21, cfg, ref, sink=seen.append)
        assert [r.iteration for r in seen] == [0, 5, 10, 15, 20]

    @pytest.mark.parametrize("algorithm", ["pavi", "exact"])
    def test_run_leaves_init_unchanged(self, gauss21, algorithm):
        # the run's state arrays are recycled; the caller's init is not one
        init = np.random.default_rng(4).standard_normal((2, 16))
        before = init.copy()
        cfg = RunConfig(N=16, T=5, schedule="corollary", seed=0, algorithm=algorithm)
        run(gauss21, cfg, gaussian_mfvi_solution(gauss21), init=init)
        assert np.array_equal(init, before)


def equivalence_case(family):
    """A potential and a reference whose quantile table mixes marginal types."""
    if family == "quadratic":
        pot = QuadraticPotential(
            [[2.0, 0.6, 0.3], [0.6, 2.0, 0.6], [0.3, 0.6, 2.0]], [1.0, -1.0, 0.5]
        )
        return pot, gaussian_mfvi_solution(pot)
    grid = np.linspace(-6.0, 6.0, 129)
    bumpy = GridDensity(grid, -0.5 * grid**2 - np.log(np.cosh(grid)))
    ref = ReferenceProduct([bumpy, GaussianMarginal(0.2, 0.5), bumpy], "test")
    if family == "perturbed_quadratic":
        pot = PerturbedQuadraticPotential(
            [[2.0, 0.6, 0.3], [0.6, 2.0, 0.6], [0.3, 0.6, 2.0]],
            [1.0, -1.0, 0.5],
            [1.0, 0.8, 1.2],
        )
        return pot, ref
    return TanhCoupled(3), ref


class TestInPlaceEquivalence:
    """``run`` recycles its work arrays; chaining the public steps, each on
    fresh arrays, must give the same rows and final particles bit for bit."""

    @pytest.mark.parametrize("algorithm", ["pavi", "exact"])
    @pytest.mark.parametrize("family", ["quadratic", "perturbed_quadratic", "tanh"])
    def test_run_equals_chained_steps(self, tmp_path, family, algorithm):
        pot, ref = equivalence_case(family)
        cfg = RunConfig(
            N=24, T=9, schedule="corollary", seed=5, algorithm=algorithm, metrics_every=2
        )
        ck = tmp_path / "ck.json"
        report = run(pot, cfg, ref, checkpoint_path=ck)

        h, B = validate_config(pot, cfg)
        rng = RngStream(cfg.seed)
        X = init_particles(pot.m, cfg.N, "standard_normal", cfg.seed)
        rebuilt = {0: w2_reference_profile(X, ref)}
        for n in range(cfg.T):
            if algorithm == "pavi":
                X = pavi_step(pot, X, h, B, rng, n)
            else:
                X = exact_step(pot, X, h, rng, n)
            rebuilt[n + 1] = w2_reference_profile(X, ref)
        assert [r.iteration for r in report.rows] == [0, 2, 4, 6, 8, 9]
        for row in report.rows:
            per, total = rebuilt[row.iteration]
            assert row.w2_total == total
            assert row.w2_coord == [float(p) for p in per]
        assert np.array_equal(read_checkpoint(ck)[1].values, X.values)


CORRUPTIONS = {
    "truncated": (lambda text, doc: text[: len(text) // 2], "JSON"),
    "bad-base64": (lambda text, doc: json.dumps(dict(doc, particles="@@@@")), "base64"),
    "size-mismatch": (lambda text, doc: json.dumps(dict(doc, shape=[2, 7])), "expected 14"),
    "non-finite": (
        lambda text, doc: json.dumps(dict(doc, particles=encode_f8(np.full(12, np.nan)))),
        "non-finite",
    ),
}


STACK_INITS = {
    "standard_normal": lambda m, N: "standard_normal",
    "point": lambda m, N: ("point", np.linspace(-1.0, 1.5, m)),
    "array": lambda m, N: np.random.default_rng([m, N]).standard_normal((m, N)),
}


def same_numbers(reports):
    """Everything of a list of reports that does not depend on wall time."""
    return [
        (r.seed, r.config, r.potential_fingerprint, r.metrics_lines(), r.summary)
        for r in reports
    ]


class TestStackedRuns:
    """``run`` with several seeds advances them as one stacked state; each
    replication must equal, row for row and bit for bit, a run of its own."""

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["quadratic", "perturbed_quadratic", "tanh"]),
        algorithm=st.sampled_from(["pavi", "exact"]),
        init=st.sampled_from(sorted(STACK_INITS)),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
        N=st.integers(2, 9),
        T=st.integers(0, 6),
        metrics_every=st.integers(1, 3),
        chunk=st.integers(1, 4),
    )
    def test_stacked_equals_separate_runs(
        self, family, algorithm, init, seeds, N, T, metrics_every, chunk
    ):
        pot, ref = equivalence_case(family)
        cfg = RunConfig(
            N=N, T=T, schedule="corollary", algorithm=algorithm, metrics_every=metrics_every
        )
        spec = STACK_INITS[init](pot.m, N)
        alone = [run(pot, replace(cfg, seed=s), ref, init=spec) for s in seeds]
        stacked = run(pot, cfg, ref, seeds=seeds, init=spec)
        assert same_numbers(stacked) == same_numbers(alone)
        # a budget of ``chunk`` replications splits the seeds into chunks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pavi.harness, "_STACK_BUDGET", chunk * pot.m * N)
            chunked = pavi.harness.run_replications(pot, cfg, ref, seeds, init=spec)
        assert same_numbers(chunked) == same_numbers(alone)

    def test_budget_splits_seeds_into_chunks(self, monkeypatch):
        pot, ref = equivalence_case("perturbed_quadratic")
        cfg = RunConfig(N=8, T=4, schedule="corollary", metrics_every=2)
        calls = []
        real_run = pavi.dynamics.run

        def recording_run(*args, **kwargs):
            calls.append(kwargs["seeds"])
            return real_run(*args, **kwargs)

        monkeypatch.setattr(pavi.dynamics, "run", recording_run)
        whole = pavi.harness.run_replications(pot, cfg, ref, range(11, 16))
        # two replications' elements, and a little less than three
        monkeypatch.setattr(pavi.harness, "_STACK_BUDGET", 3 * pot.m * cfg.N - 1)
        chunked = pavi.harness.run_replications(pot, cfg, ref, range(11, 16))
        assert calls == [[11, 12, 13, 14, 15], [11, 12], [13, 14], [15]]
        assert same_numbers(chunked) == same_numbers(whole)

    def test_divergence_names_first_replication_to_diverge(self):
        pot = Lying()
        cfg = RunConfig(N=4, T=2000, h=0.2, B=2, schedule="explicit", metrics_every=1000)
        init = np.full((1, 4), 1.0)
        seeds = [5, 2, 3, 1, 4, 9, 6]
        alone = []
        with np.errstate(over="ignore"):
            for s in seeds:
                with pytest.raises(DivergenceError) as err:
                    run(pot, replace(cfg, seed=s), init=init)
                assert err.value.seed == s
                alone.append(err.value.iteration)
            with pytest.raises(DivergenceError) as err:
                run(pot, cfg, init=init, seeds=seeds)
        first = min(alone)
        # the first seed in order diverges late, and several share the first
        # iteration to diverge; the lowest-index one of these is named
        assert alone[0] > first and alone.count(first) > 1, alone
        assert err.value.iteration == first
        assert err.value.seed == seeds[alone.index(first)]
        assert f"seed {err.value.seed}" in str(err.value)

    def test_single_seed_options(self, gauss21, tmp_path):
        cfg = RunConfig(N=8, T=2, schedule="corollary")
        for option in (
            {"sink": print},
            {"checkpoint_path": tmp_path / "ck.json"},
            {"resume": True},
        ):
            with pytest.raises(ConfigError, match="single seed"):
                run(gauss21, cfg, seeds=[0, 1], **option)
        with pytest.raises(ConfigError, match="at least one seed"):
            run(gauss21, cfg, seeds=[])


class TestRecordFrom:
    """``run(record_from=k)`` records only the schedule's rows from iteration k
    on; each equals, bit for bit, the row a whole run records there."""

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["quadratic", "perturbed_quadratic", "tanh"]),
        algorithm=st.sampled_from(["pavi", "exact"]),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
        N=st.integers(2, 9),
        T=st.integers(0, 12),
        metrics_every=st.integers(1, 4),
        data=st.data(),
    )
    def test_rows_from_k_equal_the_whole_runs_rows(
        self, family, algorithm, seeds, N, T, metrics_every, data
    ):
        pot, ref = equivalence_case(family)
        cfg = RunConfig(
            N=N, T=T, schedule="corollary", algorithm=algorithm, metrics_every=metrics_every
        )
        k = data.draw(st.integers(0, T), label="record_from")
        whole = run(pot, cfg, ref, seeds=seeds)
        part = run(pot, cfg, ref, seeds=seeds, record_from=k)
        for w, p in zip(whole, part, strict=True):
            # w2_total, w2_coord and grad_rms, as the metrics file writes them
            assert p.metrics_lines() == [
                line for r, line in zip(w.rows, w.metrics_lines()) if r.iteration >= k
            ]
            assert p.rows[-1].iteration == T
            assert p.summary == {"step_guard": w.summary["step_guard"]}
            assert len(p.wall_times) == len(p.rows)

    def test_divergence_in_the_skipped_prefix_is_the_same_error(self):
        pot = Lying()
        ref = ReferenceProduct([GaussianMarginal(0.0, 1.0)], "test")
        cfg = RunConfig(N=4, T=2000, h=0.2, B=2, schedule="explicit", metrics_every=1)
        init = np.full((1, 4), 1.0)
        seeds = [5, 2, 3]
        errors = []
        for record_from in (None, cfg.T):
            with pytest.raises(DivergenceError) as err:
                run(pot, cfg, ref, init=init, seeds=seeds, record_from=record_from)
            errors.append(err.value)
        whole, part = errors
        # the whole run records and checks every row before the divergence
        assert whole.iteration < cfg.T - 1
        assert (part.iteration, part.coordinate, part.particle, part.seed) == (
            whole.iteration, whole.coordinate, whole.particle, whole.seed)

    def test_refused_with_checkpoint_resume_or_sink(self, gauss21, tmp_path):
        cfg = RunConfig(N=8, T=4, schedule="corollary")
        for option in (
            {"sink": print},
            {"checkpoint_path": tmp_path / "ck.json"},
            {"resume": True},
        ):
            with pytest.raises(ConfigError, match="record_from") as err:
                run(gauss21, cfg, record_from=2, **option)
            assert err.value.exit_code == 2
        assert not (tmp_path / "ck.json").exists()

    @pytest.mark.parametrize("record_from", [-1, 5, 1.5, "2", True])
    def test_outside_the_run_is_refused(self, gauss21, record_from):
        with pytest.raises(ConfigError, match="record_from must be an integer"):
            run(gauss21, RunConfig(N=8, T=4, schedule="corollary"), record_from=record_from)


class TestCheckpointDecoding:
    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_corrupt_file_is_config_error(self, gauss21, tmp_path, kind):
        ck = tmp_path / "ck.json"
        cfg = RunConfig(N=6, T=2, schedule="corollary")
        run(gauss21, cfg, checkpoint_path=ck)
        corrupt, match = CORRUPTIONS[kind]
        text = ck.read_text()
        ck.write_text(corrupt(text, json.loads(text)))
        with pytest.raises(ConfigError, match=match) as err:
            read_checkpoint(ck)
        assert str(ck) in str(err.value)
        with pytest.raises(ConfigError):
            run(gauss21, cfg, checkpoint_path=ck, resume=True)


class TestAllocation:
    def test_steady_iteration_allocates_no_particle_array(self):
        # an allocation guard free of timing noise: the peak of traced memory
        # between two metrics rows (one step and one W2 record) above the
        # memory held at the first of them
        m, N = 8, 4096
        rng = np.random.default_rng(0)
        A = rng.standard_normal((m, m))
        pot = QuadraticPotential(A @ A.T / m + 2.0 * np.eye(m))
        ref = gaussian_mfvi_solution(pot)
        cfg = RunConfig(N=N, T=8, schedule="corollary", seed=1, metrics_every=1)
        transient = {}

        def sink(row):
            current, peak = tracemalloc.get_traced_memory()
            transient[row.iteration] = peak - sink.held
            tracemalloc.reset_peak()
            sink.held = current

        sink.held = 0
        tracemalloc.start()
        try:
            run(pot, cfg, ref, sink=sink)
        finally:
            tracemalloc.stop()
        one_array = 8 * m * N
        steady = {k: v / one_array for k, v in transient.items() if k >= 2}
        assert len(steady) == cfg.T - 1
        assert max(steady.values()) < 0.5, steady


class TestDrawBlocks:
    """``run`` re-seats one generator at the key of each draw; neither
    resuming between metrics rows nor the run's length may show in it."""

    @pytest.mark.parametrize("algorithm", ["pavi", "exact"])
    def test_resume_inside_a_block(self, gauss21, tmp_path, algorithm):
        ref = gaussian_mfvi_solution(gauss21)
        cfg = RunConfig(
            N=16, T=276, schedule="corollary", seed=4, algorithm=algorithm, metrics_every=9,
        )
        full_ck, ck = tmp_path / "full.json", tmp_path / "ck.json"
        full = run(gauss21, cfg, ref, checkpoint_path=full_ck)
        # the first checkpoint lands between two metrics rows, and the crash
        # comes at the next one
        every = 141
        with pytest.raises(Crash):
            run(gauss21, cfg, ref, crash_at(9 * (every // 9 + 1)), checkpoint_path=ck,
                checkpoint_every=every)
        assert read_checkpoint(ck)[0]["next_iteration"] == every
        resumed = run(gauss21, cfg, ref, checkpoint_path=ck, resume=True)
        assert resumed.metrics_lines() == full.metrics_lines()
        assert read_checkpoint(ck)[1].values.tobytes() == read_checkpoint(full_ck)[1].values.tobytes()

    def test_run_seeds_no_generator_per_draw(self, monkeypatch):
        # count every SeedSequence, default_rng and Generator that pavi builds
        # by name; neither a run's count nor a sweep's may grow with its length
        import sys

        import numpy.random

        built = []

        def counting(real):
            def build(*args, **kwargs):
                built.append(real)
                return real(*args, **kwargs)

            return build

        pavi_modules = [m for name, m in sys.modules.items() if name.startswith("pavi")]
        targets = [(numpy.random, "SeedSequence"), (numpy.random, "default_rng")] + [
            (module, name)
            for module in pavi_modules
            for name in ("SeedSequence", "default_rng", "Generator")
            if hasattr(module, name)
        ]
        for module, name in targets:
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
        pot = QuadraticPotential(np.eye(3) + 0.2)
        counts = {}
        for T in (20, 200):
            built.clear()
            run(pot, RunConfig(N=32, T=T, schedule="corollary", seed=1))
            counts[T] = len(built)
        assert counts[20] == counts[200] <= 2, counts
        # a sweep of 2 replications at 3 particle counts: two per run
        doc = {
            "potential": {"family": "quadratic", "precision": (np.eye(3) + 0.2).tolist()},
            "reference": "analytic", "N_list": [8, 16, 32], "replications": 2,
        }
        for T in (20, 200):
            built.clear()
            pavi.harness.cmd_sweep(dict(doc, T=T))
            counts[T] = len(built)
        assert counts[20] == counts[200] <= 2 * 3 * 2, counts


class TestDrawAhead:
    """From ``_DRAW_AHEAD_MIN`` elements on, ``run`` makes each iteration's
    draws on a worker thread one step ahead; the outputs must not show where
    the draws were made, and no thread may outlive the run."""

    ALWAYS, NEVER = 0, 2**62

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["quadratic", "perturbed_quadratic", "tanh"]),
        algorithm=st.sampled_from(["pavi", "exact"]),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
        N=st.integers(2, 9),
        T=st.integers(4, 9),
        metrics_every=st.integers(1, 3),
        every=st.integers(1, 3),
    )
    def test_ahead_equals_inline(
        self, tmp_path_factory, family, algorithm, seeds, N, T, metrics_every, every
    ):
        pot, ref = equivalence_case(family)
        cfg = RunConfig(
            N=N, T=T, schedule="corollary", algorithm=algorithm, metrics_every=metrics_every
        )
        one = replace(cfg, seed=seeds[0], metrics_every=1)
        tmp = tmp_path_factory.mktemp("ahead")

        def outputs(ahead_min):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pavi.dynamics, "_DRAW_AHEAD_MIN", ahead_min)
                stacked = run(pot, cfg, ref, seeds=seeds)
                # one seed, stopped after its checkpoint at ``every`` and resumed
                ck = tmp / f"{ahead_min}.json"
                with pytest.raises(Crash):
                    run(pot, one, ref, crash_at(every + 1), checkpoint_path=ck,
                        checkpoint_every=every)
                assert read_checkpoint(ck)[0]["next_iteration"] == every
                resumed = run(pot, one, ref, checkpoint_path=ck, resume=True)
            return (
                same_numbers(stacked),
                same_numbers([resumed]),
                read_checkpoint(ck)[1].values.tobytes(),
            )

        assert outputs(self.ALWAYS) == outputs(self.NEVER)

    def test_no_thread_outlives_run(self, gauss21, monkeypatch):
        monkeypatch.setattr(pavi.dynamics, "_DRAW_AHEAD_MIN", self.ALWAYS)
        ref = gaussian_mfvi_solution(gauss21)
        cfg = RunConfig(N=16, T=12, schedule="corollary", metrics_every=1)
        before = threading.enumerate()
        run(gauss21, cfg, ref, seeds=[0, 1])
        assert threading.enumerate() == before
        # a divergence, with the worker drawing the next iteration
        diverging = RunConfig(N=4, T=2000, h=0.2, B=2, schedule="explicit")
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            run(Lying(), diverging, init=np.full((1, 4), 1.0))
        assert threading.enumerate() == before
        # a failed metrics row, as a crash while recording
        with pytest.raises(Crash):
            run(gauss21, cfg, ref, crash_at(5))
        assert threading.enumerate() == before
        # a failed draw on the worker reaches the caller
        seat = RngStream.seat

        def failing_seat(stream, gen, iteration, role):
            if (iteration, role) == (7, "noise"):
                raise Crash(iteration)
            return seat(stream, gen, iteration, role)

        monkeypatch.setattr(RngStream, "seat", failing_seat)
        with pytest.raises(Crash):
            run(gauss21, cfg, ref)
        assert threading.enumerate() == before

    @pytest.mark.parametrize("ahead", [True, False])
    def test_draws_run_where_the_size_says(self, gauss21, monkeypatch, ahead):
        # 2 replications of (2, 16): 64 elements, against a bound just above
        # or at that size
        monkeypatch.setattr(pavi.dynamics, "_DRAW_AHEAD_MIN", 64 if ahead else 65)
        seat = RngStream.seat
        threads = []

        def recording_seat(stream, gen, iteration, role):
            threads.append((role, threading.current_thread()))
            return seat(stream, gen, iteration, role)

        monkeypatch.setattr(RngStream, "seat", recording_seat)
        run(gauss21, RunConfig(N=16, T=5, schedule="corollary"), seeds=[3, 4])
        main = threading.main_thread()
        assert [t is main for role, t in threads if role == "init"] == [True, True]
        steps = [t for role, t in threads if role in ("context", "noise")]
        assert len(steps) == 2 * 2 * 5
        assert all((t is not main) is ahead for t in steps)


def test_draw_ahead_run_loads_no_futures_or_yaml(tmp_path):
    # a JSON-configured run that draws ahead on its worker thread, in a fresh
    # process: the worker needs threading and queue, the config only json
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "potential": {"family": "quadratic", "precision": [[2.0, 1.0], [1.0, 2.0]]},
        "N": 16, "T": 6, "reference": "analytic",
    }))
    script = (
        "import sys, threading\n"
        "import pavi.dynamics\n"
        "from pavi.cli import main\n"
        "pavi.dynamics._DRAW_AHEAD_MIN = 0\n"
        "started = []\n"
        "threading.settrace(lambda *event: started.append(threading.current_thread().name))\n"
        "code = main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "loaded = [m for m in ('concurrent.futures', 'yaml') if m in sys.modules]\n"
        "print(code, sorted(set(started)), loaded)\n"
    )
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", script, str(config), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 ['pavi-draw-ahead'] []"
