"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  The end-to-end criteria (6, 7, 8) replicate runs
over seeds and take a few minutes combined.
"""

import math
import time

import numpy as np
import pytest
import yaml

import pavi
from pavi import (
    ParticleArray,
    QuadraticPotential,
    RngStream,
    RunConfig,
    corollary_schedule,
    fixed_point_solve,
    gaussian_mfvi_solution,
    grad_moment_check,
    grid_reference,
    init_particles,
    initial_grid_product,
    rate_fit,
    run,
    sample_product,
    sample_reference,
    w2_1d_empirical,
    w2_product_empirical,
    w2_reference_profile,
)
from pavi.cli import main
from pavi.harness import cmd_run

from conftest import exact_row, w2_1d_bruteforce


def report(num, detail):
    print(f"\nACCEPTANCE {num:02d} PASS: {detail}", flush=True)


@pytest.fixture(scope="module")
def gauss_target():
    pot = QuadraticPotential([[2.0, 1.0], [1.0, 2.0]], [1.0, -1.0])
    return pot, gaussian_mfvi_solution(pot)


@pytest.fixture(scope="module")
def perturbed_target():
    pot = pavi.PerturbedQuadraticPotential(
        [[2.0, 0.5], [0.5, 2.0]], [0.0, 0.0], [1.0, 1.0]
    )
    solved = fixed_point_solve(pot, initial_grid_product(pot, 1025), 1e-8, 200)
    return pot, solved


def test_criterion_01_sorted_coupling_optimality():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal(n) * rng.uniform(0.2, 5.0)
        b = rng.standard_normal(n) * rng.uniform(0.2, 5.0) + rng.uniform(-3, 3)
        worst = max(worst, abs(w2_1d_empirical(a, b) - w2_1d_bruteforce(a, b)))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    report(1, f"max sorted-vs-bruteforce gap {worst:.2e} over 500 instances in {elapsed:.2f}s")


def test_criterion_02_w2_additivity():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        m, N = int(rng.integers(1, 5)), int(rng.integers(2, 9))
        X = rng.standard_normal((m, N))
        Y = rng.standard_normal((m, N))
        qx, qy = ParticleArray(X), ParticleArray(Y)
        lhs = w2_product_empirical(qx, qy) ** 2
        rhs = 0.0
        for i in range(m):
            rhs += w2_1d_empirical(X[i], Y[i]) ** 2
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12
    report(2, f"max additivity defect {worst:.2e} over 200 instances")


@pytest.fixture(scope="module")
def unbias_setup():
    rng = np.random.default_rng(7)
    A = np.array(
        [[3.0, 1.0, 0.5], [1.0, 2.5, -0.7], [0.5, -0.7, 2.0]]
    )
    pot = pavi.PerturbedQuadraticPotential(A, [0.2, -0.4, 0.1], [0.5, 0.0, 1.0])
    X = init_particles(3, 4, "standard_normal", 2024)
    return pot, X


def per_context(pot, z, i, x):
    """Partials at x against each context column; their mean is the estimate."""
    cols = z.copy()
    cols[i] = x
    return pot.partial_cols(i, cols)


def test_criterion_03_stochastic_grad_unbiased(unbias_setup):
    t0 = time.monotonic()
    pot, X = unbias_setup

    class NoCap(type(pot)):
        affine_coupling = False

    exhaustive = NoCap(pot.precision, pot.mean, pot.weights)
    draws = 100_000
    probes = (-1.0, 0.3, 1.7)
    worst_sigma = 0.0
    for i in range(3):
        z = sample_product(X, draws, RngStream(500 + i).generator(0, "context"))
        for x in probes:
            vals = per_context(pot, z, i, x)
            exact = float(exact_row(exhaustive, X, i, [x], generic=True)[0])  # 16 contexts
            se = vals.std(ddof=1) / math.sqrt(draws)
            sigmas = abs(vals.mean() - exact) / se
            worst_sigma = max(worst_sigma, sigmas)
            assert sigmas <= 4.0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(3, f"max |MC mean - exhaustive| = {worst_sigma:.2f} SE over 9 probes in {elapsed:.1f}s")


def test_criterion_04_variance_scaling(unbias_setup):
    pot, X = unbias_setup
    draws = 100_000
    i, x = 0, 0.9
    z1 = sample_product(X, draws, RngStream(600).generator(0, "context"))
    var1 = per_context(pot, z1, i, x).var(ddof=1)
    z16 = sample_product(X, draws * 16, RngStream(601).generator(0, "context"))
    est16 = per_context(pot, z16, i, x).reshape(draws, 16).mean(axis=1)
    var16 = est16.var(ddof=1)
    ratio = var1 / var16
    assert 10.7 <= ratio <= 24.0
    report(4, f"var(B=1)/var(B=16) = {ratio:.2f} over {draws} resamplings")


def test_criterion_05_contraction_map(gauss_target, perturbed_target):
    for pot in (gauss_target[0], perturbed_target[0]):
        h = 1.0 / (pot.alpha + pot.lip)
        rng = np.random.default_rng(1005)
        violations = 0
        for _ in range(10):
            xs = rng.standard_normal((pot.m, 100)) * 3
            ys = rng.standard_normal((pot.m, 100)) * 3
            lhs = np.linalg.norm(
                (xs - h * pot.gradient_cols(xs)) - (ys - h * pot.gradient_cols(ys)),
                axis=0,
            )
            rhs = (1.0 - pot.alpha * h) * np.linalg.norm(xs - ys, axis=0)
            violations += int(np.sum(lhs > rhs + 1e-12))
        assert violations == 0
    report(5, "0 contraction violations over 1000 pairs per family")


def test_criterion_06_gaussian_end_to_end(gauss_target):
    t0 = time.monotonic()
    pot, ref = gauss_target
    N, T, R = 2048, 4000, 16
    h, _ = corollary_schedule(pot.lip, N)
    reports = []
    for seed in range(R):
        cfg = RunConfig(N=N, T=T, schedule="corollary", seed=seed, metrics_every=10)
        reports.append(run(pot, cfg, ref))
    steady = np.array([r.summary["steady_mean"] for r in reports])
    mean_steady = float(steady.mean())
    its = np.array([row.iteration for row in reports[0].rows], dtype=float)
    mean_series = np.mean(
        [[row.w2_total for row in r.rows] for r in reports], axis=0
    )
    fit = rate_fit(its, mean_series)
    bound = 1.0 - pot.alpha * h / 8.0
    elapsed = time.monotonic() - t0
    assert mean_steady <= 0.15
    assert fit.contraction_rate is not None and fit.contraction_rate <= bound
    assert elapsed < 120.0
    report(
        6,
        f"steady W2 {mean_steady:.4f} (<= 0.15), rate {fit.contraction_rate:.4f} "
        f"(<= {bound:.4f}), {elapsed:.0f}s for {R} seeds",
    )


def test_criterion_07_n_scaling(gauss_target):
    t0 = time.monotonic()
    pot, ref = gauss_target
    from pavi.harness import cmd_sweep

    doc = {
        "potential": pot.to_config(),
        "reference": "analytic",
        "N_list": [64, 256, 1024, 4096],
        "replications": 16,
        "T": 2000,
        "metrics_every": 10,
        "seed": 0,
    }
    result = cmd_sweep(doc)
    means = [e.mean_w2 for e in result.entries]
    elapsed = time.monotonic() - t0
    assert all(b < a for a, b in zip(means, means[1:])), means
    assert -0.6 <= result.slope <= -0.15
    assert elapsed < 600.0
    report(
        7,
        f"steady W2 {['%.3f' % v for v in means]} strictly decreasing, "
        f"slope {result.slope:.3f} in [-0.6, -0.15], {elapsed:.0f}s",
    )


def test_criterion_08_nonparametric_oracle_agreement(perturbed_target):
    t0 = time.monotonic()
    pot, solved = perturbed_target
    residual = max(solved.residual.per_coordinate_w2)
    assert solved.residual.converged and residual < 1e-8
    ref = grid_reference(solved)
    N, T, R = 2048, 4000, 16
    steady = []
    for seed in range(R):
        cfg = RunConfig(N=N, T=T, schedule="corollary", seed=seed)
        steady.append(run(pot, cfg, ref).summary["steady_mean"])
    mean_steady = float(np.mean(steady))
    elapsed = time.monotonic() - t0
    assert mean_steady <= 0.1
    assert elapsed < 180.0
    report(
        8,
        f"oracle residual {residual:.1e} (< 1e-8), steady W2 {mean_steady:.4f} "
        f"(<= 0.1), {elapsed:.0f}s",
    )


def test_criterion_09_moment_identities(gauss_target, perturbed_target):
    K = 100_000
    details = []
    for (pot, refish), tag in (
        ((gauss_target[0], gauss_target[1]), "gaussian"),
        ((perturbed_target[0], grid_reference(perturbed_target[1])), "grid"),
    ):
        samples = sample_reference(refish, K, RngStream(42).generator(0, "reference"))
        diag = grad_moment_check(pot, samples)
        m, L, alpha = pot.m, pot.lip, pot.alpha
        mean_bound = 4.0 * math.sqrt(m * L**2 / alpha) / math.sqrt(K)
        assert diag.mean_grad_norm <= mean_bound
        assert diag.mean_sq_grad <= m * L**2 / alpha * 1.05
        assert np.all(diag.coordinate_variances <= (1.0 / alpha) * 1.05)
        details.append(
            f"{tag}: |Egrad| {diag.mean_grad_norm:.4f} <= {mean_bound:.4f}, "
            f"E|grad|^2 {diag.mean_sq_grad:.2f} <= {m * L**2 / alpha * 1.05:.2f}"
        )
    report(9, "; ".join(details))


def test_criterion_10_empirical_concentration(gauss_target):
    pot, ref = gauss_target
    Ns = [64, 256, 1024, 4096]
    seeds = 32
    ratios = []
    for N in Ns:
        sq = []
        for s in range(seeds):
            Y = sample_reference(ref, N, RngStream(9000 + s).generator(0, "reference"))
            w2 = w2_reference_profile(ParticleArray(Y), ref)[1]
            sq.append(w2**2)
        ratios.append(float(np.mean(sq)) * N / (pot.m * math.log(N)))
    spread = max(ratios) / min(ratios)
    assert spread <= 4.0
    report(
        10,
        f"W2^2 * N / (m log N) = {['%.4f' % r for r in ratios]}, "
        f"max/min {spread:.2f} (<= 4)",
    )


def test_criterion_11_guard_enforcement(tmp_path, capsys):
    base = {
        "potential": {
            "family": "quadratic",
            "precision": [[2.0, 1.0], [1.0, 2.0]],
            "mean": [1.0, -1.0],
        },
        "schedule": "explicit",
        "N": 16,
        "T": 10,
        "B": 1,
        "reference": "none",
    }
    cases = [
        (dict(base, h=0.05), "violating h"),
        (dict(base, h=1.0 / 36.0), "boundary equality"),
        (dict(base, h=0.02, N=1), "N < 2"),
    ]
    for doc, label in cases:
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, label
        if "N < 2" not in label:
            assert "0.5" in err and "0.0277778" in err, label
    report(11, "guard violations and N=1 rejected with exit 2 and both bounds printed")


def test_criterion_12_determinism_across_threads(tmp_path):
    doc = {
        "potential": {
            "family": "quadratic",
            "precision": [[2.0, 1.0], [1.0, 2.0]],
            "mean": [1.0, -1.0],
        },
        "schedule": "corollary",
        "N": 256,
        "T": 300,
        "seed": 11,
        "metrics_every": 10,
        "reference": "analytic",
    }
    blobs = []
    for k in (1, 4, 8):
        out = tmp_path / f"t{k}"
        cmd_run(doc, out_dir=out, threads=k)
        blobs.append((out / "metrics.jsonl").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    report(12, "metrics files byte-identical across 1, 4, 8 worker threads")
