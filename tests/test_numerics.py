"""pavi's own numerical kernels against scipy as an independent reference.

The program computes the normal quantile (AS241), the log-sum-exp of its grid
normalisation, the cumulative Simpson CDF and the PCHIP quantile function
itself; scipy (a test-only dependency) provides the reference values.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator
from scipy.special import logsumexp, ndtri

from pavi.metrics import GaussianMarginal, _ndtri
from pavi.oracle import (
    GridDensity,
    _cumulative_simpson,
    _eval_cubics,
    _Grid,
    _log_sum_exp,
    _pchip_cubics,
)


def max_rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert np.array_equal(np.isfinite(a), np.isfinite(b))
    scale = np.where(b == 0.0, 1.0, np.abs(b))
    return float(np.max(np.abs(a - b) / scale))


class TestNormalQuantile:
    @pytest.mark.parametrize("N", [2048, 4096, 8192, 16384, 32768, 65536])
    def test_midpoints(self, N):
        u = (np.arange(N) + 0.5) / N
        assert max_rel(_ndtri(u), ndtri(u)) <= 2e-15

    def test_uniform_points(self):
        u = np.random.default_rng(7).uniform(1e-12, 1.0 - 1e-12, 10**6)
        assert max_rel(_ndtri(u), ndtri(u)) <= 2e-15

    def test_edges(self):
        out = _ndtri([0.0, 1.0, -0.5, 1.5, np.nan, 0.5])
        np.testing.assert_array_equal(out, [-np.inf, np.inf, np.nan, np.nan, np.nan, 0.0])

    def test_shapes(self):
        assert _ndtri(0.975).shape == ()
        assert _ndtri(np.full((2, 3), 0.25)).shape == (2, 3)
        assert GaussianMarginal(1.0, 4.0).quantile(0.5) == 1.0


@st.composite
def grid_log_densities(draw):
    """Uniform grids of odd or even size with log densities that are flat
    (underflowing) in the tails and may hold -inf runs at either end."""
    G = draw(st.integers(9, 160))
    lo = draw(st.floats(-20.0, 5.0))
    nodes = np.linspace(lo, lo + draw(st.floats(0.5, 40.0)), G)
    center = draw(st.floats(float(nodes[0]), float(nodes[-1])))
    width = draw(st.floats(0.02, 10.0)) * (nodes[-1] - nodes[0])
    tilt = draw(st.floats(-3.0, 3.0))
    logd = -0.5 * ((nodes - center) / width) ** 2 + tilt * np.tanh(nodes - center)
    logd = logd + draw(st.floats(-500.0, 500.0))
    head, tail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    logd[:head] = -np.inf
    logd[G - tail:] = -np.inf
    return nodes, logd


def searchsorted_cubics(x, c, t):
    """The cubic evaluator as earlier pavi versions wrote it: one binary
    search per level, clipped to the intervals."""
    k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    s = t - x[k]
    s2 = s * s
    return c[3, k] + c[2, k] * s + c[1, k] * s2 + c[0, k] * (s2 * s)


@st.composite
def shaped_densities(draw):
    """Grid densities of 9 to 1100 nodes: flat, skewed, or so narrow that
    the quantile function drops tail knots."""
    G = draw(st.integers(9, 1100))
    nodes = np.linspace(-1.0, 1.0, G) * draw(st.floats(0.5, 20.0))
    shape = draw(st.sampled_from(["flat", "skewed", "narrow"]))
    if shape == "flat":
        return shape, GridDensity(nodes, np.zeros(G))
    center = draw(st.floats(float(nodes[0]), float(nodes[-1])))
    if shape == "skewed":
        width = draw(st.floats(0.05, 2.0)) * nodes[-1]
        tilt = draw(st.floats(-3.0, 3.0))
        return shape, GridDensity(nodes, -0.5 * ((nodes - center) / width) ** 2
                                  + tilt * np.tanh(nodes - center))
    # a node spacing is at least 12 widths, so all but the nearest nodes hold
    # CDF increments far below the knots' 1e-12
    width = (nodes[1] - nodes[0]) / 12
    return shape, GridDensity(nodes, -0.5 * ((nodes - center) / width) ** 2)


def parent_quantile(d, u):
    """The quantile function as built from scipy's PchipInterpolator."""
    cdf = cumulative_simpson(d.density(), x=d.nodes, initial=0.0)
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, None))
    cdf /= cdf[-1]
    keep = np.concatenate(([True], np.diff(cdf) > 1e-12))
    inv = PchipInterpolator(cdf[keep], d.nodes[keep], extrapolate=False)
    return np.clip(inv(np.clip(u, cdf[0], cdf[-1])), d.nodes[0], d.nodes[-1]), cdf[keep][-1]


class TestGridKernels:
    @settings(max_examples=150, deadline=None)
    @given(grid_log_densities())
    def test_log_sum_exp(self, case):
        nodes, logd = case
        assert abs(_log_sum_exp(logd) - float(logsumexp(logd))) <= 1e-13 * max(
            1.0, float(np.max(logd))
        )

    @settings(max_examples=150, deadline=None)
    @given(grid_log_densities())
    def test_cumulative_simpson(self, case):
        nodes, logd = case
        f = GridDensity(nodes, logd).density()
        reference = cumulative_simpson(f, x=nodes, initial=0.0)
        assert np.max(np.abs(_cumulative_simpson(f, _Grid(nodes)) - reference)) <= 1e-13

    @settings(max_examples=150, deadline=None)
    @given(grid_log_densities(), st.integers(1, 4096))
    def test_quantile(self, case, K):
        d = GridDensity(*case)
        u = np.concatenate(([0.0, -0.25], (np.arange(K) + 0.5) / K))
        reference, last_knot = parent_quantile(d, u)
        inside = u <= last_knot
        span = d.nodes[-1] - d.nodes[0]
        assert np.max(np.abs(d.quantile(u[inside]) - reference[inside])) <= 1e-13 * span
        # past the last knot lies only the dropped tail mass (< 1e-12 per
        # node): the quantile stays at the last kept node instead of NaN
        beyond = d.quantile(np.concatenate((u[~inside], [1.0])))
        assert np.all(beyond == d.quantile(last_knot))

    @settings(max_examples=150, deadline=None)
    @given(shaped_densities(), st.integers(1, 4096), st.data())
    def test_counted_intervals_match_binary_search(self, case, K, data):
        # ascending levels: midpoints, every knot exactly, and some beyond
        # either end, which take the first and the last cubic
        shape, d = case
        d.quantile(0.5)
        x, c = d._knots, d._cubics
        if shape == "narrow":
            assert x.size < d.nodes.size
        if shape == "flat":
            assert x.size == d.nodes.size
        t = np.concatenate(((np.arange(K) + 0.5) / K, x))
        if data.draw(st.booleans()):
            t = np.concatenate((t, [-0.25, 1.5]))
        t = np.sort(t)
        assert np.array_equal(_eval_cubics(c, t), searchsorted_cubics(x, c, t))

    @settings(max_examples=100, deadline=None)
    @given(shaped_densities(), st.integers(1, 600), st.integers(0, 2**32 - 1))
    def test_unsorted_levels_through_quantile(self, case, K, seed):
        # quantile evaluates levels in any order and shape as the ascending
        # evaluator does, each at its own place
        _, d = case
        d.quantile(0.5)
        x, c = d._knots, d._cubics
        u = np.concatenate(((np.arange(K) + 0.5) / K, x, [0.0, 1.0, -0.25]))
        u = np.random.default_rng(seed).permutation(u)
        expected = np.clip(searchsorted_cubics(x, c, np.clip(u, x[0], x[-1])),
                           d.nodes[0], d.nodes[-1])
        assert np.array_equal(d.quantile(u), expected)
        if u.size % 2 == 0:
            assert np.array_equal(d.quantile(u.reshape(2, -1)), expected.reshape(2, -1))

    @pytest.mark.parametrize("G", [9, 10])
    @pytest.mark.parametrize("where", [0, 4, -1])
    def test_quantile_of_one_node(self, G, where):
        # all mass at one node: the CDF rises on one or two intervals, so the
        # interpolant may have just two knots
        logd = np.full(G, -np.inf)
        logd[where] = 0.0
        d = GridDensity(np.linspace(-1.0, 1.0, G), logd)
        u = np.linspace(0.0, 1.0, 101)
        reference, last_knot = parent_quantile(d, u)
        assert last_knot == 1.0
        assert np.max(np.abs(d.quantile(u) - reference)) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=40),
        st.data(),
    )
    def test_pchip_ascending(self, steps, data):
        # strictly ascending knots and values, the only ones the quantile
        # function builds: uneven secants exercise the harmonic means and
        # both outcomes of the three-point end rule
        x = np.concatenate(([0.0], np.cumsum(steps)))
        y = data.draw(st.floats(-10.0, 10.0)) + np.concatenate(([0.0], np.cumsum(data.draw(
            st.lists(st.floats(1e-3, 10.0), min_size=x.size - 1, max_size=x.size - 1)))))
        t = np.linspace(x[0], x[-1], 257)
        c = _pchip_cubics(x, y)
        reference = PchipInterpolator(x, y)
        np.testing.assert_array_equal(c[4], x[:-1])
        np.testing.assert_allclose(c[2], reference.derivative()(x[:-1]), rtol=1e-13, atol=1e-13)
        assert np.max(np.abs(_eval_cubics(c, t) - reference(t))) <= 1e-13 * max(
            1.0, np.max(np.abs(y)))


@st.composite
def finite_log_densities(draw):
    """Finite log-densities on uniform grids: a bump, a tilt and independent
    noise of any size, so that the CDF may have flat runs of dropped knots."""
    G = draw(st.integers(9, 300))
    nodes = draw(st.floats(-10.0, 10.0)) + np.linspace(-1.0, 1.0, G) * draw(st.floats(0.1, 30.0))
    center = draw(st.floats(float(nodes[0]), float(nodes[-1])))
    width = draw(st.floats(0.01, 3.0)) * (nodes[-1] - nodes[0])
    noise = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=G, max_size=G)))
    logd = (-0.5 * ((nodes - center) / width) ** 2 + draw(st.floats(-3.0, 3.0)) * np.tanh(nodes)
            + draw(st.floats(0.0, 60.0)) * noise + draw(st.floats(-500.0, 500.0)))
    return nodes, logd


def earlier_tables(nodes, logd, u):
    """Log-density, CDF, knots, cubics, W2 table, mean and quantiles at u of a
    grid density as earlier pavi versions computed them: np.diff, np.trapezoid
    and np.mean, both Simpson parabolas on every interval, PCHIP slopes masked
    at sign changes of the secants, and one binary search per level."""
    step = float(np.diff(nodes)[0])
    w = np.full(nodes.size, step)
    w[0] = w[-1] = 0.5 * step
    a = logd + np.log(w)
    top = np.max(a)
    terms = np.exp(a - top)
    terms[a == top] = 0.0
    count = np.count_nonzero(a == top)
    logd = logd - float(np.log1p(terms.sum() / count) + np.log(count) + top)
    f = np.exp(logd)
    assert abs(float(np.trapezoid(f, nodes)) - 1.0) <= 1e-10
    h = np.diff(nodes)

    def simpson(f1, f2, f3, h21, h32):
        a = h21 / (h21 + h32)
        b = a * (h21 / h32)
        return h21 / 6 * ((3 - a) * f1 + (3 + b + a) * f2 - b * f3)

    parts = np.append(simpson(f[:-2], f[1:-1], f[2:], h[:-1], h[1:]), 0.0)
    back = simpson(f[2:], f[1:-1], f[:-2], h[1:], h[:-1])
    parts[1::2] = back[::2]
    parts[-1] = back[-1]
    cdf = np.maximum.accumulate(np.clip(np.concatenate(([0.0], np.cumsum(parts))), 0.0, None))
    cdf /= cdf[-1]
    keep = np.concatenate(([True], np.diff(cdf) > 1e-12))
    x, y = cdf[keep], nodes[keep]
    hx = np.diff(x)
    m = np.diff(y) / hx
    d = np.array([m[0], m[0]]) if m.size == 1 else np.zeros_like(y)
    if m.size > 1:
        interior = (np.sign(m[:-1]) == np.sign(m[1:])) & (m[1:] != 0)
        w1, w2 = 2 * hx[1:] + hx[:-1], hx[1:] + 2 * hx[:-1]
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][interior] = 1.0 / whmean[interior]
        for j, k in ((0, 1), (-1, -2)):
            e = ((2 * hx[j] + hx[k]) * m[j] - hx[j] * m[k]) / (hx[j] + hx[k])
            if np.sign(e) != np.sign(m[j]):
                e = 0.0
            elif np.sign(m[j]) != np.sign(m[k]) and abs(e) > 3.0 * abs(m[j]):
                e = 3.0 * m[j]
            d[j] = e
    t = (d[:-1] + d[1:] - 2 * m) / hx
    cubics = np.stack((t / hx, (m - d[:-1]) / hx - t, d[:-1], y[:-1]))

    def quantile(levels):
        levels = np.clip(levels, x[0], x[-1])
        order = np.argsort(levels, kind="stable")
        out = np.empty_like(levels)
        out[order] = searchsorted_cubics(x, cubics, levels[order])
        return np.clip(out, nodes[0], nodes[-1])

    table = quantile((np.arange(4096) + 0.5) / 4096)
    mean = float(np.trapezoid(nodes * f, nodes))
    return logd, cdf, x, cubics, table, mean, quantile(u)


class TestKeptGrid:
    @settings(max_examples=150, deadline=None)
    @given(finite_log_densities(), st.integers(0, 2**32 - 1))
    def test_raw_nodes_and_passed_grid_keep_earlier_bits(self, case, seed):
        # a density on raw nodes checks and builds its own grid; one on the
        # grid of another density takes it as it is: both reproduce the
        # earlier arithmetic bit for bit
        nodes, logd = case
        u = np.concatenate((np.linspace(-0.1, 1.1, 301), [0.0, 1.0, 0.5]))
        u = np.random.default_rng(seed).permutation(u)
        expected = earlier_tables(nodes, logd, u)
        other = GridDensity(nodes, np.zeros(nodes.size))
        for d in (GridDensity(nodes, logd), GridDensity(other.grid, logd)):
            table = d._w2_quantiles()
            cdf = np.maximum.accumulate(np.maximum(_cumulative_simpson(d.density(), d.grid), 0.0))
            got = (d.log_density, cdf / cdf[-1], d._knots, d._cubics[:4], table, d.mean(),
                   d.quantile(u))
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)
            assert np.array_equal(d._cubics[4], expected[2][:-1])
            assert d.w2_to(other) == math.sqrt(np.mean((table - other._w2_quantiles()) ** 2))


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    code = "import sys, pavi.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"
