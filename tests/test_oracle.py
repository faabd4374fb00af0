import json
import math

import numpy as np
import pytest

from pavi import (
    ConfigError,
    GridDensity,
    GridProduct,
    PerturbedQuadraticPotential,
    QuadraticPotential,
    apply_transform,
    fixed_point_solve,
    gaussian_mfvi_solution,
    grad_moment_check,
    grid_reference,
    initial_grid_product,
    load_reference,
    sample_reference,
    save_reference,
    vbar_on_grid,
)
from pavi.errors import OracleConvergenceError
from pavi.oracle import coordinate_grids, minimizer
from pavi.particles import RngStream
from pavi.potentials import logcosh
from pavi.reports import f8_base64

from conftest import grid_variance


class TensorOnly(PerturbedQuadraticPotential):
    """The perturbed family with its affine coupling hidden from the oracle."""

    affine_coupling = False


def gaussian_grid(nodes, mean, var):
    return GridDensity(nodes, -0.5 * (nodes - mean) ** 2 / var)


class TestGridDensity:
    def test_normalization(self):
        nodes = np.linspace(-8, 8, 513)
        d = gaussian_grid(nodes, 0.0, 1.0)
        assert np.trapezoid(d.density(), nodes) == pytest.approx(1.0, abs=1e-10)

    def test_moments(self):
        nodes = np.linspace(-10, 10, 1025)
        d = gaussian_grid(nodes, 0.7, 0.5)
        assert d.mean() == pytest.approx(0.7, abs=1e-9)
        assert grid_variance(d) == pytest.approx(0.5, abs=1e-9)

    def test_quantile_accuracy(self):
        from scipy.special import ndtri

        nodes = np.linspace(-9, 9, 1025)
        d = gaussian_grid(nodes, 0.0, 1.0)
        u = np.linspace(0.01, 0.99, 199)
        assert np.max(np.abs(d.quantile(u) - ndtri(u))) < 1e-6

    def test_quantile_monotone(self):
        nodes = np.linspace(-6, 6, 257)
        d = gaussian_grid(nodes, -1.0, 2.0)
        q = d.quantile(np.linspace(0.001, 0.999, 400))
        assert np.all(np.diff(q) >= 0)

    def test_degenerate_rejected(self):
        nodes = np.linspace(0, 1, 16)
        with pytest.raises(OracleConvergenceError, match="all log-density values are -inf"):
            GridDensity(nodes, np.full(16, -np.inf))

    def test_nonuniform_rejected(self):
        nodes = np.concatenate([np.linspace(0, 1, 8), np.linspace(1.3, 2, 8)])
        with pytest.raises(ConfigError, match="uniformly spaced"):
            GridDensity(nodes, np.zeros(16))

    def test_w2_between_grids(self):
        nodes = np.linspace(-12, 12, 1025)
        a = gaussian_grid(nodes, 0.0, 1.0)
        b = gaussian_grid(nodes, 1.0, 1.0)
        # translation by 1 has W2 exactly 1
        assert a.w2_to(b) == pytest.approx(1.0, abs=1e-5)


class TestKeptTables:
    """A density keeps its W2 midpoint table and its mean: no value changes."""

    @staticmethod
    def seeded_densities():
        rng = np.random.default_rng(20)
        out = []
        for lo, hi, G in [(-6.0, 6.0, 129), (-4.5, 7.0, 97), (-9.0, 3.0, 257)]:
            nodes = np.linspace(lo, hi, G)
            center, var = rng.uniform(-1.0, 1.0), rng.uniform(0.4, 2.0)
            logd = -0.5 * (nodes - center) ** 2 / var + 0.3 * rng.standard_normal(G)
            out.append(GridDensity(nodes, logd))
        return out

    def test_w2_to_is_the_midpoint_quantile_rms(self):
        u = (np.arange(4096) + 0.5) / 4096
        dens = self.seeded_densities()
        for _ in range(2):
            for a in dens:
                for b in dens:
                    expected = math.sqrt(np.mean((a.quantile(u) - b.quantile(u)) ** 2))
                    assert a.w2_to(b) == expected
                    assert b.w2_to(a) == expected

    def test_mean_is_the_trapezoid_mean(self):
        for d in self.seeded_densities():
            expected = np.trapezoid(d.nodes * d.density(), d.nodes)
            assert d.mean() == expected
            assert d.mean() == expected


class TestMinimizerAndGrids:
    def test_minimizer_quadratic(self, gauss21):
        assert np.allclose(minimizer(gauss21), [1.0, -1.0], atol=1e-9)

    def test_minimizer_perturbed(self, perturbed2):
        x = minimizer(perturbed2)
        assert np.linalg.norm(perturbed2.gradient_cols(x[:, None])) < 1e-9

    @pytest.mark.parametrize("kind", ["uniform", "narrow"])
    def test_initial_product_searches_minimizer_once(self, monkeypatch, perturbed2, kind):
        from pavi import oracle

        center, grids = minimizer(perturbed2), coordinate_grids(perturbed2, 33)
        searches = []

        def counted(pot):
            searches.append(pot)
            return minimizer(pot)

        monkeypatch.setattr(oracle, "minimizer", counted)
        start = initial_grid_product(perturbed2, 33, kind)
        assert searches == [perturbed2]
        for d, nodes, c in zip(start.marginals, grids, center):
            s = 4.0 * (nodes[1] - nodes[0])
            logd = np.zeros(33) if kind == "uniform" else -0.5 * ((nodes - c) / s) ** 2
            assert np.array_equal(d.nodes, nodes)
            assert np.array_equal(d.log_density, GridDensity(nodes, logd).log_density)

    def test_oracle_starts_share_one_search_and_grids(self, monkeypatch, tmp_path):
        from pavi import oracle
        from pavi.harness import cmd_oracle

        searches, starts = [], []
        minimize, solve = oracle.minimizer, oracle.fixed_point_solve
        monkeypatch.setattr(oracle, "minimizer", lambda pot: searches.append(pot) or minimize(pot))
        monkeypatch.setattr(oracle, "fixed_point_solve",
                            lambda pot, start, *args: starts.append(start) or solve(pot, start, *args))
        doc = {
            "potential": {"family": "perturbed_quadratic", "precision": [[2.0, 0.7], [0.7, 1.5]],
                          "mean": [0.8, -0.5], "weights": [1.5, 0.5]},
            "method": "grid",
            "grid_size": 65,
            "check_inits": True,
        }
        cmd_oracle(doc, tmp_path / "ref.json")
        assert len(searches) == 1 and len(starts) == 2
        for uniform, narrow in zip(*(start.marginals for start in starts)):
            assert uniform.grid is narrow.grid

    def test_grids_centered_with_half_width(self, gauss21):
        grids = coordinate_grids(gauss21, G=65)
        for nodes, c in zip(grids, [1.0, -1.0]):
            assert nodes.size == 65
            assert nodes[0] == pytest.approx(c - 8.0, abs=1e-8)
            assert nodes[-1] == pytest.approx(c + 8.0, abs=1e-8)


class TestVbarOnGrid:
    def test_m1_equals_potential(self):
        pot = QuadraticPotential([[2.0]], [0.3])
        q = initial_grid_product(pot, G=129)
        nodes = q.marginals[0].nodes
        vbar = vbar_on_grid(pot, 0, q)
        assert np.allclose(vbar, pot.value_cols(nodes[None, :]), atol=1e-12)

    def test_gaussian_expectation_quadratic(self, gauss21_centered):
        # E_y V(x, y) over y ~ N(0, 1/2): the cross term has mean zero, so
        # vbar(x) = x^2 + const
        pot = gauss21_centered
        grids = coordinate_grids(pot, G=1025)
        q = GridProduct(
            [
                gaussian_grid(grids[0], 0.0, 1.0),
                gaussian_grid(grids[1], 0.0, 0.5),
            ]
        )
        nodes = grids[0]
        vbar = vbar_on_grid(pot, 0, q)
        centered = vbar - vbar[nodes.size // 2]
        expected = nodes**2 - nodes[nodes.size // 2] ** 2
        assert np.max(np.abs(centered - expected)) < 1e-8

    def test_refinement_consistency(self, gauss21_centered):
        # refining the quadrature grid moves the profile by at most O(G^-2)
        pot = gauss21_centered
        vals = {}
        for G in (129, 257):
            grids = coordinate_grids(pot, G=G)
            q = GridProduct(
                [
                    gaussian_grid(grids[0], 0.0, 1.0),
                    gaussian_grid(grids[1], 0.2, 0.6),
                ]
            )
            vbar = vbar_on_grid(pot, 0, q)
            vals[G] = vbar[::2] - vbar[G // 2] if G == 257 else vbar - vbar[G // 2]
        change = np.max(np.abs(vals[129] - vals[257]))
        assert change <= 10.0 / 129**2

    @pytest.mark.parametrize("m", [2, 3])
    def test_tensor_quadrature_matches_mean_route(self, m):
        # the tensor loop on a non-affine twin gives the same normalized
        # update as the mean route, on grids of unequal sizes and spans under
        # skewed densities
        rng = np.random.default_rng(5)
        A = rng.standard_normal((m, m))
        A = A @ A.T + 3 * np.eye(m)
        args = (A, rng.standard_normal(m), rng.uniform(0.5, 2.0, m))
        pot, twin = PerturbedQuadraticPotential(*args), TensorOnly(*args)
        centers = minimizer(pot)
        grids = [np.linspace(c - 5.0 - k, c + 6.0, 49 + 16 * k) for k, c in enumerate(centers)]
        q = GridProduct(
            [GridDensity(g, -0.5 * (g - c) ** 2 + 0.8 * np.tanh(g)) for g, c in zip(grids, centers)]
        )
        for i in range(m):
            a = apply_transform(pot, i, q).log_density
            b = apply_transform(twin, i, q).log_density
            assert np.max(np.abs(a - b)) <= 1e-11

    def test_scale_gate_without_capability(self):
        class Plain(QuadraticPotential):
            affine_coupling = False

        pot = Plain(np.eye(4))
        q = initial_grid_product(pot, G=17)
        with pytest.raises(ConfigError, match="tensor-quadrature gate"):
            vbar_on_grid(pot, 0, q)

    def test_separable_route_beyond_m3(self):
        A = np.eye(4) + 0.1
        for pot in (
            QuadraticPotential(A, np.zeros(4)),
            PerturbedQuadraticPotential(A, np.zeros(4), np.ones(4)),
        ):
            q = initial_grid_product(pot, G=65)
            vbar = vbar_on_grid(pot, 0, q)
            nodes = q.marginals[0].nodes
            # profile is determined up to a constant; compare the centered shape
            means = np.array([d.mean() for d in q.marginals])
            expected = A[0, 0] * nodes**2 / 2 + nodes * (A[0, 1:] @ means[1:])
            if isinstance(pot, PerturbedQuadraticPotential):
                expected = expected + logcosh(nodes)
            centered = vbar - vbar[32] - (expected - expected[32])
            assert np.max(np.abs(centered)) < 1e-9


class TestApplyTransform:
    def test_m1_recovers_target(self):
        a = 2.5
        pot = QuadraticPotential([[a]], [0.0])
        q = initial_grid_product(pot, G=513)
        out = apply_transform(pot, 0, q)
        assert out.mean() == pytest.approx(0.0, abs=1e-9)
        assert grid_variance(out) == pytest.approx(1.0 / a, abs=1e-9)

    def test_conditional_gaussian_form(self, gauss21_centered):
        # freezing the second coordinate at mean 0.4 shifts the first
        # marginal to N(-0.2, 0.5)
        pot = gauss21_centered
        grids = coordinate_grids(pot, G=1025)
        q = GridProduct(
            [
                gaussian_grid(grids[0], 0.0, 1.0),
                gaussian_grid(grids[1], 0.4, 0.7),
            ]
        )
        out = apply_transform(pot, 0, q)
        assert out.mean() == pytest.approx(-0.2, abs=1e-6)
        assert grid_variance(out) == pytest.approx(0.5, abs=1e-6)

    def test_output_normalized(self, perturbed2):
        q = initial_grid_product(perturbed2, G=257)
        out = apply_transform(perturbed2, 0, q)
        assert np.trapezoid(out.density(), out.nodes) == pytest.approx(1.0, abs=1e-10)


class TestFixedPointSolve:
    def test_quadratic_solution(self, gauss21):
        solved = fixed_point_solve(gauss21, initial_grid_product(gauss21, 1025), 1e-8, 100)
        assert solved.residual.converged
        for d, mean, var in zip(solved.marginals, [1.0, -1.0], [0.5, 0.5]):
            assert d.mean() == pytest.approx(mean, abs=1e-6)
            assert grid_variance(d) == pytest.approx(var, abs=1e-6)

    def test_offset_start_converges(self, gauss21):
        # start away from the answer so the iteration actually moves
        grids = coordinate_grids(gauss21, 513)
        init = GridProduct(
            [
                gaussian_grid(grids[0], 4.0, 2.0),
                gaussian_grid(grids[1], -5.0, 0.1),
            ]
        )
        solved = fixed_point_solve(gauss21, init, 1e-8, 100)
        assert solved.residual.sweeps > 1
        assert np.allclose(
            [d.mean() for d in solved.marginals], [1.0, -1.0], atol=1e-6
        )

    def test_m1_single_sweep(self):
        pot = QuadraticPotential([[1.5]], [2.0])
        solved = fixed_point_solve(pot, initial_grid_product(pot, 513), 1e-8, 10)
        assert solved.residual.sweeps == 1
        assert solved.marginals[0].mean() == pytest.approx(2.0, abs=1e-8)

    def test_residual_after_reapplication(self, perturbed2):
        tol = 1e-8
        solved = fixed_point_solve(perturbed2, initial_grid_product(perturbed2, 513), tol, 100)
        for i in range(2):
            again = apply_transform(perturbed2, i, solved)
            assert again.w2_to(solved.marginals[i]) < tol

    @pytest.mark.parametrize("damping", [1.0, 0.7])
    def test_verification_update_reused(self, monkeypatch, damping):
        # the verification pass's coordinate-0 update starts the next sweep,
        # and the pass stops at coordinate 0 while its residual is at or above
        # tol; the marginals are those of recomputing every update every time
        from pavi import oracle

        pot = PerturbedQuadraticPotential([[2.0, 0.7], [0.7, 1.5]], [0.8, -0.5], [1.5, 0.5])
        init = initial_grid_product(pot, 129)
        q, sweeps = init.copy(), 0
        while True:
            sweeps += 1
            for i in range(2):
                new = apply_transform(pot, i, q)
                mixed = damping * new.log_density + (1.0 - damping) * q.marginals[i].log_density
                q.marginals[i] = new if damping == 1.0 else GridDensity(new.nodes, mixed)
            if max(apply_transform(pot, i, q).w2_to(q.marginals[i]) for i in range(2)) < 1e-8:
                break
        calls = []

        def counted(pot, i, q):
            calls.append(i)
            return apply_transform(pot, i, q)

        monkeypatch.setattr(oracle, "apply_transform", counted)
        solved = fixed_point_solve(pot, init, 1e-8, 100, damping)
        assert solved.residual.sweeps == sweeps > 2
        assert calls == [0, 1, 0] + [1, 0] * (sweeps - 2) + [1, 0, 1]
        for a, b in zip(solved.marginals, q.marginals):
            assert np.array_equal(a.log_density, b.log_density)

    def test_damped_history_is_the_raw_node_arithmetic(self):
        # at damping 0.5 the solver builds each update and each mix on the
        # grid of the density it replaces; building both from raw nodes, each
        # checked again, gives the same W2 history and marginals bit for bit
        pot = PerturbedQuadraticPotential([[2.0, 0.7], [0.7, 1.5]], [0.8, -0.5], [1.5, 0.5])
        init = initial_grid_product(pot, 129)
        solved = fixed_point_solve(pot, init, 1e-8, 100, 0.5)
        q, history = init.copy(), []
        for sweep in range(1, solved.residual.sweeps + 1):
            max_w2 = max_sup = 0.0
            for i in range(2):
                old = q.marginals[i]
                new = GridDensity(old.nodes.copy(), -vbar_on_grid(pot, i, q))
                new = GridDensity(old.nodes.copy(), 0.5 * new.log_density + 0.5 * old.log_density)
                max_w2 = max(max_w2, new.w2_to(old))
                max_sup = max(max_sup, float(np.max(np.abs(new.log_density - old.log_density))))
                q.marginals[i] = new
            history.append((sweep, max_w2, max_sup))
        assert solved.residual.sweeps > 2
        assert solved.residual.history == history
        for a, b in zip(solved.marginals, q.marginals):
            assert np.array_equal(a.log_density, b.log_density)

    def test_verification_stops_at_first_unconverged_coordinate(self, monkeypatch):
        # at m = 3 each sweep but the last verifies coordinate 0 only; the
        # last sweep of the budget verifies all three for the error message
        from pavi import oracle

        pot = PerturbedQuadraticPotential(
            [[2.0, 0.6, 0.3], [0.6, 2.0, 0.6], [0.3, 0.6, 2.0]], [0.8, -0.9, 0.75], [1.0, 0.95, 1.05]
        )
        init = initial_grid_product(pot, 33)
        calls, real = [], oracle.apply_transform

        def counted(pot, i, q):
            calls.append(i)
            return real(pot, i, q)

        monkeypatch.setattr(oracle, "apply_transform", counted)
        with pytest.raises(OracleConvergenceError, match="in 4 sweeps"):
            fixed_point_solve(pot, init, 1e-12, 4)
        assert calls == [0, 1, 2, 0] + [1, 2, 0] * 2 + [1, 2, 0, 1, 2]

    @pytest.mark.parametrize("damping", [1.0, 0.7])
    def test_w2_table_evaluated_once_per_density(self, monkeypatch, damping):
        # every W2 table is one _eval_cubics call at the midpoint levels; the
        # cubics block names the density, and holding it keeps its id unique
        from pavi import oracle

        pot = PerturbedQuadraticPotential([[2.0, 0.7], [0.7, 1.5]], [0.8, -0.5], [1.5, 0.5])
        init = initial_grid_product(pot, 129)
        tables, real = [], oracle._eval_cubics

        def counted(c, t):
            if t.size == oracle._W2_LEVELS:
                tables.append(c)
            return real(c, t)

        monkeypatch.setattr(oracle, "_eval_cubics", counted)
        solved = fixed_point_solve(pot, init, 1e-8, 100, damping)
        assert solved.residual.sweeps > 2
        assert len(tables) > 2 * solved.residual.sweeps
        assert len({id(x) for x in tables}) == len(tables)

    def test_kept_tables_leave_reference_bytes(self, monkeypatch, tmp_path):
        from pavi.harness import cmd_oracle

        doc = {
            "potential": {
                "family": "perturbed_quadratic",
                "precision": [[2.0, 0.6, 0.3], [0.6, 2.0, 0.6], [0.3, 0.6, 2.0]],
                "mean": [0.8, -0.9, 0.75],
                "weights": [1.0, 0.95, 1.05],
            },
            "method": "grid",
            "grid_size": 97,
            "check_inits": True,
        }
        kept = cmd_oracle(doc, tmp_path / "kept.json").read_bytes()
        # defeat both caches: recompute each W2 table and mean on every call
        asked = []

        def table(self):
            asked.append(self)
            return self.quantile((np.arange(4096) + 0.5) / 4096)

        monkeypatch.setattr(GridDensity, "_w2_quantiles", table)
        monkeypatch.setattr(
            GridDensity, "mean", lambda d: float(np.trapezoid(d.nodes * d.density(), d.nodes))
        )
        fresh = cmd_oracle(doc, tmp_path / "fresh.json").read_bytes()
        # the defeated run did recompute tables it had computed before
        assert len({id(d) for d in asked}) < len(asked)
        assert json.loads(fresh)["residual"]["sweeps"] > 2
        assert kept == fresh

    def test_tensor_route_solves_like_mean_route(self):
        # asymmetric non-Gaussian target: the solve iterates, and the tensor
        # loop on the non-affine twin follows the mean route sweep for sweep
        args = ([[2.0, 0.7], [0.7, 1.5]], [0.8, -0.5], [1.5, 0.5])
        pot, twin = PerturbedQuadraticPotential(*args), TensorOnly(*args)
        a = fixed_point_solve(pot, initial_grid_product(pot, 129), 1e-10, 100)
        b = fixed_point_solve(twin, initial_grid_product(twin, 129), 1e-10, 100)
        assert a.residual.sweeps > 1
        assert a.residual.sweeps == b.residual.sweeps
        for da, db in zip(a.marginals, b.marginals):
            assert da.w2_to(db) <= 1e-12

    def test_max_iter_exceeded(self, gauss21):
        grids = coordinate_grids(gauss21, 129)
        init = GridProduct(
            [
                gaussian_grid(grids[0], 4.0, 2.0),
                gaussian_grid(grids[1], -5.0, 0.1),
            ]
        )
        with pytest.raises(OracleConvergenceError) as err:
            fixed_point_solve(gauss21, init, 1e-12, 1)
        assert err.value.history

    def test_budget_error_names_verification_residual(self, monkeypatch):
        # the message prints the verification residual that was compared with
        # tol, the last sweep's largest change, and the last three history rows
        pot = PerturbedQuadraticPotential([[2.0, 0.7], [0.7, 1.5]], [0.8, -0.5], [1.5, 0.5])
        init = initial_grid_product(pot, 129)
        compared, real = [], GridDensity.w2_to

        def recorded(self, other):
            compared.append(real(self, other))
            return compared[-1]

        monkeypatch.setattr(GridDensity, "w2_to", recorded)
        with pytest.raises(OracleConvergenceError, match="in 4 sweeps") as err:
            fixed_point_solve(pot, init, 1e-12, 4)
        monkeypatch.undo()
        resid = max(compared[-2:])
        history = err.value.history
        message = str(err.value)
        assert f"verification residual {resid:.3e}" in message
        assert f"largest W2 change {history[-1][1]:.3e}" in message
        assert f"{resid:.3e}" != f"{history[-1][1]:.3e}"
        assert all(f"({n}, {w:.3e}, {s:.3e})" in message for n, w, s in history[-3:])
        assert f"({history[0][0]}, " not in message
        # it is the residual the solver compared: a tol just above it stops there
        with pytest.raises(OracleConvergenceError):
            fixed_point_solve(pot, init, resid, 4)
        solved = fixed_point_solve(pot, init, np.nextafter(resid, np.inf), 4)
        assert solved.residual.sweeps == 4
        assert max(solved.residual.per_coordinate_w2) == resid

    def test_grid_too_narrow(self):
        pot = QuadraticPotential([[0.01]], [0.0])  # sd = 10
        grids = [np.linspace(-4, 4, 129)]
        init = GridProduct([GridDensity(grids[0], np.zeros(129))])
        with pytest.raises(OracleConvergenceError, match="widen the grid"):
            fixed_point_solve(pot, init, 1e-8, 10)

    def test_second_derivative_sandwich_on_grid(self, perturbed2):
        solved = fixed_point_solve(perturbed2, initial_grid_product(perturbed2, 513), 1e-8, 100)
        for i in range(2):
            nodes = solved.marginals[i].nodes
            vbar = vbar_on_grid(perturbed2, i, solved)
            step = nodes[1] - nodes[0]
            second = (vbar[2:] - 2 * vbar[1:-1] + vbar[:-2]) / step**2
            assert second.min() >= perturbed2.alpha - 1e-3
            assert second.max() <= perturbed2.lip + 1e-3

    def test_grid_refinement_of_solution(self, perturbed2):
        stats = {}
        for G in (257, 513):
            solved = fixed_point_solve(
                perturbed2, initial_grid_product(perturbed2, G), 1e-10, 100
            )
            stats[G] = [(d.mean(), grid_variance(d)) for d in solved.marginals]
        for (m1, v1), (m2, v2) in zip(stats[257], stats[513]):
            assert abs(m1 - m2) <= 10.0 / 257**2
            assert abs(v1 - v2) <= 10.0 / 257**2

    def test_independent_inits_agree(self, perturbed2):
        a = fixed_point_solve(perturbed2, initial_grid_product(perturbed2, 513, "uniform"), 1e-9, 100)
        b = fixed_point_solve(perturbed2, initial_grid_product(perturbed2, 513, "narrow"), 1e-9, 100)
        for da, db in zip(a.marginals, b.marginals):
            assert da.w2_to(db) < 1e-7

    def test_converged_boundary_mass_tiny(self, gauss21, perturbed2):
        # the default 8/sqrt(alpha) half width leaves the endpoints far
        # below the type-level 1e-10 boundary bound
        for pot in (gauss21, perturbed2):
            solved = fixed_point_solve(pot, initial_grid_product(pot, 513), 1e-8, 100)
            for d in solved.marginals:
                assert d.boundary_density() < 1e-10


class TestGaussianSolution:
    def test_identity_is_standard_normal(self):
        ref = gaussian_mfvi_solution(QuadraticPotential(np.eye(2)))
        assert ref.provenance == "analytic-gaussian"
        for mar in ref.marginals:
            assert mar.mean == 0.0 and mar.var == 1.0

    def test_coupled_case(self, gauss21):
        ref = gaussian_mfvi_solution(gauss21)
        assert [mar.mean for mar in ref.marginals] == [1.0, -1.0]
        assert [mar.var for mar in ref.marginals] == [0.5, 0.5]

    def test_agrees_with_grid_solver(self, gauss21):
        solved = fixed_point_solve(gauss21, initial_grid_product(gauss21, 1025), 1e-8, 100)
        analytic = gaussian_mfvi_solution(gauss21)
        u = (np.arange(4096) + 0.5) / 4096
        for d, mar in zip(solved.marginals, analytic.marginals):
            diff = d.quantile(u) - mar.quantile(u)
            assert np.sqrt(np.mean(diff**2)) < 1e-6

    def test_rejects_perturbed(self, perturbed2):
        with pytest.raises(ConfigError):
            gaussian_mfvi_solution(perturbed2)


class TestSampling:
    def test_point_mass_like(self):
        pot = QuadraticPotential([[400.0]], [1.0])  # sd 0.05
        ref = gaussian_mfvi_solution(pot)
        x = sample_reference(ref, 1000, RngStream(0).generator(0, "reference"))
        assert np.all(np.abs(x - 1.0) < 0.05 * 6)

    def test_clt_bands(self, gauss21):
        ref = gaussian_mfvi_solution(gauss21)
        x = sample_reference(ref, 100_000, RngStream(1).generator(0, "reference"))
        assert x[0].mean() == pytest.approx(1.0, abs=0.01)
        assert x[0].var() == pytest.approx(0.5, abs=0.01)
        assert x[1].mean() == pytest.approx(-1.0, abs=0.01)

    def test_deterministic(self, gauss21):
        ref = gaussian_mfvi_solution(gauss21)
        a = sample_reference(ref, 50, RngStream(2).generator(0, "reference"))
        b = sample_reference(ref, 50, RngStream(2).generator(0, "reference"))
        assert np.array_equal(a, b)

    def test_moment_identities_under_grid_solution(self, perturbed2):
        solved = fixed_point_solve(perturbed2, initial_grid_product(perturbed2, 513), 1e-8, 100)
        ref = grid_reference(solved)
        samples = sample_reference(ref, 50_000, RngStream(3).generator(0, "reference"))
        diag = grad_moment_check(perturbed2, samples)
        m, L, alpha = 2, perturbed2.lip, perturbed2.alpha
        assert diag.mean_grad_norm <= 4.0 * np.sqrt(m * L**2 / alpha / 50_000)
        assert diag.mean_sq_grad <= m * L**2 / alpha * 1.05
        assert np.all(diag.coordinate_variances <= 1.05 / alpha)


class TestSerialization:
    def test_gaussian_round_trip(self, gauss21, tmp_path):
        ref = gaussian_mfvi_solution(gauss21)
        path = tmp_path / "ref.json"
        save_reference(path, ref)
        again = load_reference(path)
        assert again.provenance == "analytic-gaussian"
        u = np.linspace(0.01, 0.99, 99)
        for a, b in zip(ref.marginals, again.marginals):
            assert np.allclose(a.quantile(u), b.quantile(u), atol=0)

    def test_grid_round_trip(self, perturbed2, tmp_path):
        solved = fixed_point_solve(perturbed2, initial_grid_product(perturbed2, 257), 1e-8, 100)
        ref = grid_reference(solved)
        path = tmp_path / "ref.json"
        save_reference(path, ref)
        again = load_reference(path)
        assert again.provenance == "grid-oracle"
        assert again.residual["converged"] is True
        u = np.linspace(0.01, 0.99, 99)
        for a, b in zip(ref.marginals, again.marginals):
            assert np.allclose(a.quantile(u), b.quantile(u), atol=1e-12)

    @pytest.mark.parametrize(
        "update, match",
        [
            ({"residual": {"converged": False}}, "residual"),
            ({"residual": {"sweeps": 3}}, "residual"),
            ({"residual": [1.0]}, "residual"),
            ({"residual": "converged"}, "residual"),
            ({"provenance": 0}, "provenance"),
            ({"provenance": None}, "provenance"),
        ],
        ids=["not-converged", "no-converged", "list", "string", "number-provenance",
             "null-provenance"],
    )
    def test_unconverged_or_mistyped_record_is_config_error(
        self, perturbed2, tmp_path, update, match
    ):
        path = tmp_path / "ref.json"
        solved = fixed_point_solve(perturbed2, initial_grid_product(perturbed2, 33), 1e-6, 100)
        save_reference(path, grid_reference(solved))
        load_reference(path)
        path.write_text(json.dumps(dict(json.loads(path.read_text()), **update)))
        with pytest.raises(ConfigError, match=match) as err:
            load_reference(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "gaussian, update, match",
        [
            (False, None, "JSON"),
            (False, {"log_density": "not base64!"}, "base64"),
            (False, {"count": 34}, "expected 34"),
            (False, {"log_density": f8_base64(np.full(33, np.nan)).decode()}, "non-finite"),
            (True, {"var": float("inf")}, "var must be a finite number"),
            (False, {"count": 5, "log_density": f8_base64(np.zeros(5)).decode()}, "at least 9"),
            (False, {"lo": 2.0, "hi": -2.0}, "strictly ascending"),
            (True, {"var": -1.0}, "variance must be nonnegative"),
            (False, {"count": 33.5}, "count must be an integer"),
        ],
        ids=[
            "truncated", "bad-base64", "size-mismatch", "non-finite-grid",
            "non-finite-gaussian", "too-few-nodes", "descending-grid",
            "negative-variance", "fractional-count",
        ],
    )
    def test_corrupt_file_is_config_error(
        self, gauss21, perturbed2, tmp_path, gaussian, update, match
    ):
        path = tmp_path / "ref.json"
        if gaussian:
            save_reference(path, gaussian_mfvi_solution(gauss21))
        else:
            save_reference(path, grid_reference(initial_grid_product(perturbed2, 33)))
        text = path.read_text()
        if update is None:
            path.write_text(text[: len(text) // 2])
        else:
            doc = json.loads(text)
            doc["marginals"][0].update(update)
            path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=match) as err:
            load_reference(path)
        assert str(path) in str(err.value)
