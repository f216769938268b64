"""Kernel formulas, convolution solves and the two-path stability gap.

Reference values below were frozen from an independent high-precision
quadrature (mpmath, 30 digits) of the substituted convolution.  The
closed forms for power data come from repeated erfc integrals: for
h = t^nu the solve is Gamma(nu + 1) (4t)^nu i^{2 nu}erfc(y / 2 sqrt(t)).
The library evaluates exactly these closed forms, so its solves are
also checked against two quadratures of the substituted convolution
kept here as references: a graded Gauss-Legendre rule for power data
and a knot-aligned one for splines.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.special import erfc, gamma, pbdv

from spdelab import (
    BoundaryData,
    GridMismatch,
    QuadratureError,
    SpaceTimeGrid,
    dt_v,
    finite_diff,
    kernel_mass,
    poisson_kernel,
    solve_halfline,
    stability_gap,
)
from spdelab import halfline

# P(1, 1)
P_1_1 = 0.2196956447338612

# convolution of h(t) = t^2, frozen at selected (t, y) nodes
V_T2 = {
    (1.0, 1.0): 0.19340789053199532,
    (0.5, 0.3): 0.12888488145385948,
    (1.0, 0.05): 0.9272282242899369,
}
DTV_T2 = {
    (1.0, 1.0): 0.5597177876254156,
    (0.5, 0.3): 0.6041204103517688,
}


def vgrid(cells=20, steps=4):
    return SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=cells, t_max=1.0, steps=steps)


def t2_data(times):
    return BoundaryData.from_power(2, times)


def ierfc(k, z):
    """i^k erfc(z) by the recurrence of Abramowitz-Stegun 7.2.5."""
    prev, cur = 2.0 / math.sqrt(math.pi) * np.exp(-z * z), erfc(z)
    for n in range(1, k + 1):
        prev, cur = cur, (prev - 2.0 * z * cur) / (2.0 * n)
    return cur


def frac_ierfc(nu, z):
    """i^nu erfc(z) for real nu >= 0 through the parabolic cylinder D_{-nu-1}."""
    d, _ = pbdv(-nu - 1.0, math.sqrt(2.0) * z)
    return 2.0 / math.sqrt(math.pi) * 2.0 ** (-(nu + 1.0) / 2.0) * np.exp(-z * z / 2.0) * d


def power_oracle(grid, nu, ierfc_fn):
    """Closed-form solve of h = t^nu on the grid nodes with t > 0, y > 0."""
    t, y = np.meshgrid(grid.times[1:], grid.x1_nodes[1:], indexing="ij")
    return gamma(nu + 1.0) * (4.0 * t) ** nu * ierfc_fn(y / (2.0 * np.sqrt(t)))


def node(grid, t, y):
    j = int(round(t / grid.dt))
    i = int(round(y / grid.dx1))
    assert grid.times[j] == pytest.approx(t) and grid.x1_nodes[i] == pytest.approx(y)
    return j, i


# -- kernel point values ----------------------------------------------


def test_kernel_point_value():
    assert poisson_kernel(1.0, 1.0) == pytest.approx(P_1_1, rel=1e-14)


def test_kernel_vanishes_on_the_wall():
    assert poisson_kernel(2.0, 0.0) == 0.0


def test_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        poisson_kernel(0.0, 1.0)
    with pytest.raises(ValueError):
        poisson_kernel(-1.0, 1.0)
    with pytest.raises(ValueError):
        poisson_kernel(1.0, -0.1)
    # NaN fails every check, in either argument and inside an array
    for s, y in ((math.nan, 1.0), (1.0, math.nan), ([1.0, math.nan], 1.0)):
        with pytest.raises(ValueError):
            poisson_kernel(s, y)


def test_kernel_parabolic_scaling():
    # P(y^2 r, y) = P(r, 1) / y^2
    y, r = 2.0, 0.7
    assert poisson_kernel(y * y * r, y) == pytest.approx(
        poisson_kernel(r, 1.0) / y**2, rel=1e-14
    )


def test_kernel_gaussian_envelope():
    # |P(s, y)| <= s^{-1} exp(-y^2 / (8 s)) with constant one
    s = np.logspace(-3, 2, 40)[:, None]
    y = np.linspace(0.0, 12.0, 50)[None, :]
    p = poisson_kernel(np.broadcast_to(s, (40, 50)), np.broadcast_to(y, (40, 50)))
    bound = np.exp(-(y * y) / (8.0 * s)) / s
    assert np.all(p <= bound * (1.0 + 1e-12))


def test_kernel_mass_is_one():
    for y in (0.1, 1.0, 10.0):
        assert abs(kernel_mass(y) - 1.0) <= 1e-8


@pytest.mark.parametrize("y", [1e100, 1e120, 1e150, 1e-160, 1e-200])
def test_kernel_mass_is_one_at_extreme_distances(y):
    # y^2 / (4 u^2) and s^{3/2} leave the doubles here; the mass does not move
    assert abs(kernel_mass(y) - 1.0) <= 1e-10


@pytest.mark.parametrize("y", [math.inf, math.nan, 0.0, -1.0])
def test_kernel_mass_refuses_a_distance_that_names_no_mass(y):
    with pytest.raises(ValueError, match=f"y = {y}"):
        kernel_mass(y)


def test_importing_the_cli_loads_no_quadrature_or_interpolation():
    # only the mass check needs scipy.integrate, and it imports quad on call
    code = (
        "import sys, spdelab.cli\n"
        "heavy = ['scipy.integrate', 'scipy.interpolate', 'scipy.optimize']\n"
        "assert not [m for m in heavy if m in sys.modules], [m for m in heavy if m in sys.modules]\n"
        "from spdelab import kernel_mass\n"
        "assert abs(kernel_mass(1.0) - 1.0) <= 1e-10 and 'scipy.integrate' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_kernel_mass_reports_a_missed_tolerance(monkeypatch):
    # one subinterval cannot reach 1e-10 on the half-infinite range
    monkeypatch.setattr(halfline, "_MASS_LIMIT", 1)
    with pytest.raises(QuadratureError, match="kernel_mass") as err:
        kernel_mass(1.0)
    assert err.value.estimate is not None and err.value.achieved > 0.0


# -- boundary data ----------------------------------------------------


def test_boundary_data_flags_and_scales():
    times = np.linspace(0.0, 1.0, 5)
    d = BoundaryData.from_power(2, times, scales=[1.0, -2.0])
    assert d.n_paths == 2 and d.h0_zero and d.hp0_zero and d.analytic
    assert np.allclose(d.h[1], -2.0 * times**2)
    s = BoundaryData.from_samples(times[None, :], np.ones((1, 5)), times)
    assert s.h0_zero and not s.hp0_zero and not s.analytic


def test_boundary_data_consistency_guard():
    # power data derives h' itself; below nu = 1 it is unbounded at t = 0
    times = np.linspace(0.0, 1.0, 9)
    for nu in (0.5, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="nu >= 1"):
            BoundaryData.from_power(nu, times)
    d = BoundaryData.from_power(1.25, times, scales=[2.0])
    assert np.allclose(d.h_prime, 2.5 * times**0.25, rtol=1e-15, atol=0.0)
    lin = BoundaryData.from_power(1, times)
    assert lin.h0_zero and not lin.hp0_zero and np.all(lin.h_prime == 1.0)


def test_boundary_data_shape_validation():
    times = np.linspace(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        BoundaryData.from_samples(np.zeros((2, 4)), np.zeros((2, 3)), times)


# -- half-line solves -------------------------------------------------


def test_solve_frozen_values_analytic():
    g = vgrid()
    v = solve_halfline(t2_data(g.times), g)
    for (t, y), ref in V_T2.items():
        j, i = node(g, t, y)
        assert v.values[0, j, i] == pytest.approx(ref, rel=1e-9)


def test_solve_wall_and_initial_rows_exact():
    g = vgrid(cells=6)
    data = t2_data(g.times)
    v = solve_halfline(data, g)
    assert np.array_equal(v.values[0, :, 0], data.h[0])
    assert np.all(v.values[:, 0, 1:] == 0.0)


def test_solve_zero_data_gives_zero_field():
    g = vgrid(cells=6)
    data = BoundaryData.from_samples(
        np.zeros((3, g.steps + 1)), np.zeros((3, g.steps + 1)), g.times
    )
    v = solve_halfline(data, g)
    assert np.all(v.values == 0.0)
    assert v.n_paths == 3


@pytest.mark.parametrize("paths", [1, 3])
@pytest.mark.parametrize("uniform", [True, False])
def test_spline_is_scipys_not_a_knot_spline_bit_for_bit(paths, uniform):
    # 2 and 3 knots take scipy's special cases (the chord, the parabola)
    rng = np.random.default_rng(17 * paths + uniform)
    for n in list(range(2, 41)) + [65, 129, 513]:
        if uniform:
            times = np.linspace(0.0, 1.0, n)
        else:
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, n - 1))])
        h = rng.normal(size=(paths, n))
        data = BoundaryData.from_samples(h, rng.normal(size=(paths, n)), times)
        for derivative, values in ((False, data.h), (True, data.h_prime)):
            ref = CubicSpline(times, values.T, axis=0).c
            assert np.array_equal(data.spline(derivative), ref), (n, derivative)


def test_wall_data_refuses_non_finite_input():
    # one NaN sample once made the data's scale NaN, and the solve then
    # refused it with a false "requires h(0) = 0"
    times = np.linspace(0.0, 1.0, 5)
    h = times[None, :] ** 2
    h[0, 2] = math.nan
    with pytest.raises(ValueError, match="h must be finite, got nan"):
        BoundaryData.from_samples(h, 2.0 * times[None, :], times)
    with pytest.raises(ValueError, match="h_prime must be finite"):
        BoundaryData.from_samples(times[None, :] ** 2, h, times)
    with pytest.raises(ValueError, match="scales must be finite, got inf"):
        BoundaryData.from_power(2, times, scales=[1.0, math.inf])
    with pytest.raises(ValueError, match="nu >= 1"):
        BoundaryData.from_power(math.inf, times)


def test_spline_refuses_a_nan_sample():
    # from_samples refuses NaN itself, so the data is built field by field
    times = np.linspace(0.0, 1.0, 6)
    h = times[None, :] ** 2
    h[0, 3] = math.nan
    data = BoundaryData(h, 2.0 * times[None, :], times, h0_zero=True, hp0_zero=True)
    with pytest.raises(ValueError, match="spline samples must be finite"):
        data.spline()


def test_solve_sampled_matches_analytic():
    # a cubic spline through t^2 samples reproduces the profile exactly,
    # so the sampled route must land on the analytic values
    for steps in (4, 16, 128):
        g = vgrid(steps=steps)
        va = solve_halfline(t2_data(g.times), g)
        data = BoundaryData.from_samples(
            (g.times**2)[None, :], (2.0 * g.times)[None, :], g.times
        )
        vs = solve_halfline(data, g)
        assert np.allclose(vs.values, va.values, rtol=0.0, atol=1e-14)


def test_solve_requires_compatible_grid_and_zero_start():
    g = vgrid(cells=4)
    with pytest.raises(GridMismatch):
        solve_halfline(t2_data(g.times[:-1]), g)
    bad = BoundaryData.from_samples(
        np.ones((1, g.steps + 1)), np.zeros((1, g.steps + 1)), g.times
    )
    with pytest.raises(ValueError, match="h\\(0\\)"):
        solve_halfline(bad, g)


def test_dt_v_frozen_values():
    g = vgrid()
    d = dt_v(t2_data(g.times), g)
    for (t, y), ref in DTV_T2.items():
        j, i = node(g, t, y)
        assert d.values[0, j, i] == pytest.approx(ref, rel=1e-9)
    # wall row carries h' exactly
    assert np.allclose(d.values[0, :, 0], 2.0 * g.times, atol=0.0)


def test_dt_v_requires_flat_start():
    g = vgrid(cells=4)
    lin = BoundaryData.from_power(1, g.times)
    with pytest.raises(ValueError, match="h'\\(0\\)"):
        dt_v(lin, g)


def test_time_derivative_equals_second_space_derivative():
    # the convolution identity d_t v = D11 v, checked against a centered
    # second difference away from the wall
    g = SpaceTimeGrid(dim=1, x1_max=1.5, x1_cells=30, t_max=1.0, steps=4)
    data = t2_data(g.times)
    d = dt_v(data, g)
    v = solve_halfline(data, g)
    d11 = finite_diff(v, (2,))
    gap = np.abs(d.values - d11.values)[0, 1:, 2:-2]
    assert float(np.max(gap)) < 2e-3  # second-order in dx = 0.05


def test_solve_matches_repeated_erfc_oracle():
    g = SpaceTimeGrid(dim=1, x1_max=2.0, x1_cells=32, t_max=1.0, steps=16)
    for n in (1, 2, 3):
        data = BoundaryData.from_power(n, g.times)
        v = solve_halfline(data, g).values[0, 1:, 1:]
        exact = power_oracle(g, n, lambda z, n=n: ierfc(2 * n, z))
        assert np.allclose(v, exact, rtol=0.0, atol=1e-13)


def test_dt_v_matches_twice_the_linear_oracle():
    g = SpaceTimeGrid(dim=1, x1_max=2.0, x1_cells=32, t_max=1.0, steps=16)
    d = dt_v(t2_data(g.times), g).values[0, 1:, 1:]
    assert np.allclose(d, 2.0 * power_oracle(g, 1, lambda z: ierfc(2, z)), rtol=0.0, atol=1e-13)


def test_dt_v_of_rough_data_matches_fractional_oracle():
    # the lemma's h = t^{1 + a/2}: h' = e t^{a/2} is not smooth at t = 0
    g = SpaceTimeGrid(dim=1, x1_max=2.0, x1_cells=32, t_max=1.0, steps=16)
    for alpha in (0.25, 0.5, 0.75):
        e = 1.0 + alpha / 2.0
        data = BoundaryData.from_power(e, g.times)
        d = dt_v(data, g).values[0, 1:, 1:]
        exact = e * power_oracle(g, e - 1.0, lambda z, e=e: frac_ierfc(2.0 * (e - 1.0), z))
        assert np.allclose(d, exact, rtol=0.0, atol=1e-13)


def test_worker_threads_do_not_change_values(monkeypatch):
    pools = []

    class SpyPool(ThreadPoolExecutor):
        def map(self, fn, jobs):
            jobs = list(jobs)
            pools.append((self._max_workers, len(jobs)))
            return super().map(fn, jobs)

    monkeypatch.setattr(halfline, "ThreadPoolExecutor", SpyPool)
    monkeypatch.setattr(halfline, "_KERNEL_BLOCK", 64)
    g = vgrid(cells=8)
    sampled = BoundaryData.from_samples(
        np.vstack([g.times**2, np.sin(g.times) - g.times]),
        np.vstack([2.0 * g.times, np.cos(g.times) - 1.0]),
        g.times,
    )
    power = BoundaryData.from_power(1.125, g.times, scales=[1.0, -0.5, 3.0])
    # at 64 kernel values a block, each spline row (4 orders x j knots x 8
    # nodes) is a block of its own; the power rows (8 values each) share one
    for data, blocks in ((sampled, g.steps), (power, 1)):
        for solve in (solve_halfline, dt_v):
            pools.clear()
            runs = [solve(data, g, workers=w).values for w in (1, 2, 3)]
            # one pool per threaded call, every block of time rows one job
            assert pools == [(2, blocks), (3, blocks)]
            assert all(np.array_equal(runs[0], r) for r in runs[1:])


def block_cases(g):
    t = g.times
    sampled = BoundaryData.from_samples(
        np.vstack([t**2, np.sin(t) - t, t**3 - 0.5 * t**2]),
        np.vstack([2.0 * t, np.cos(t) - 1.0, 3.0 * t**2 - t]),
        t,
    )
    scales = [1.0, -0.5, 3.0]
    return [sampled] + [BoundaryData.from_power(nu, t, scales=scales) for nu in (2, 1.375)]


@pytest.mark.parametrize("budget", [1, 7, 64, "default"])
def test_block_boundaries_move_no_bits(budget, monkeypatch):
    # budget 1 puts every time row in a block of its own, as a row-wise solve
    # does; the default splits the 64 spline rows into several blocks
    g = vgrid(cells=16, steps=64)
    cases = block_cases(g)
    default = halfline._KERNEL_BLOCK
    monkeypatch.setattr(halfline, "_KERNEL_BLOCK", 1)
    rowwise = {(i, s): s(d, g).values for i, d in enumerate(cases) for s in (solve_halfline, dt_v)}
    monkeypatch.setattr(halfline, "_KERNEL_BLOCK", default if budget == "default" else budget)
    for (i, solve), values in rowwise.items():
        for w in (1, 2, 3):
            assert np.array_equal(solve(cases[i], g, workers=w).values, values), (i, w)


def test_the_kernel_is_evaluated_once_per_block(monkeypatch):
    calls, ierfc = [], halfline._ierfc

    def counted(orders, z):
        calls.append(z.shape)
        return ierfc(orders, z)

    monkeypatch.setattr(halfline, "_ierfc", counted)
    g = vgrid(cells=8, steps=16)
    # 16 spline rows hold 4 orders x 136 knots x 8 nodes = 4,352 kernel values,
    # 16 power rows 128: each fits one block
    for data in block_cases(g):
        calls.clear()
        solve_halfline(data, g)
        assert len(calls) == 1
    monkeypatch.setattr(halfline, "_KERNEL_BLOCK", 1)
    calls.clear()
    solve_halfline(block_cases(g)[0], g)
    assert len(calls) == g.steps


def test_fractional_orders_evaluate_pbdv_once_per_distinct_argument(monkeypatch):
    # on a uniform grid z = y / (2 sqrt(s)) is bit-equal at nodes (i, m) and
    # (2i, 4m): y_2i = 2 y_i and sqrt(4m dt) = 2 sqrt(m dt), both exact
    g = SpaceTimeGrid(dim=1, x1_max=64.0, x1_cells=32, t_max=1.0, steps=64)
    s, y = g.times[1:], g.x1_nodes[1:]
    z = y / (2.0 * np.sqrt(s))[:, None]  # z[m - 1, i - 1]
    assert z[8 - 1, 3 - 1] == z[32 - 1, 6 - 1] and z[16 - 1, 1 - 1] == z[64 - 1, 2 - 1]
    live = z < halfline._Z_UNDERFLOW
    assert 0 < live.sum() < z.size  # the cut at z = 30 falls inside the grid
    sizes = []

    def counted(v, x):
        sizes.append(x.size)
        return pbdv(v, x)

    monkeypatch.setattr(halfline, "pbdv", counted)
    out = halfline._ierfc([1.125, 2.0, 2.5], z)  # order 2 takes the recurrence
    assert sizes == [len(np.unique(z[live]))] * 2 and sizes[0] < live.sum()
    for m, nu in ((0, 1.125), (2, 2.5)):
        # the fractional route evaluated on every entry, repeats included
        d, _ = pbdv(-2.0 * nu - 1.0, math.sqrt(2.0) * z[live])
        ref = np.zeros_like(z)
        ref[live] = halfline._TWO_OVER_SQRTPI * 2.0 ** (-nu - 0.5) * np.exp(-0.5 * z[live] ** 2) * d
        assert np.array_equal(out[m], ref)


# -- power data: closed form against the graded quadrature ------------

# exp(-u^2) beyond u0 + 8 contributes below erfc(8) ~ 1.1e-29 of scale
_U_WINDOW = 8.0


def _panel_rule(edges, order):
    """Points and weights of order-point Gauss-Legendre on every panel."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


def graded_solve(fn, grid, rel_tol=1e-10):
    """Reference: (2/sqrt(pi)) int_{u0}^{u0+8} exp(-u^2) fn(t - y^2/(4 u^2)) du
    at every interior node, shaped (nt - 1, ny - 1).

    Ten Gauss-Legendre points on each of 16 panels shrinking by 1/4 toward
    d = u - u0 = 0, where tau -> 0 and data such as t^{a/2} is rough, and on
    unit panels over the Gaussian tail; the value is the bisected rule's,
    which must agree with the coarse one to rel_tol (absolute floor 1e-14).
    """
    edges = np.concatenate([[0.0], 0.25 ** np.arange(16, 0, -1), np.arange(1.0, _U_WINDOW + 1.0)])
    fine = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    t, y = (a.ravel()[:, None] for a in np.meshgrid(grid.times[1:], grid.x1_nodes[1:], indexing="ij"))
    u0 = y / (2.0 * np.sqrt(t))
    est = []
    for d, w in (_panel_rule(edges, 10), _panel_rule(fine, 10)):
        u = u0 + d
        # tau = t - y^2 / (4 u^2), written without the cancellation at u0
        tau = t * (d * (2.0 * u0 + d)) / (u * u)
        est.append(halfline._TWO_OVER_SQRTPI * (w * np.exp(-u * u) * fn(tau)).sum(axis=-1))
    coarse, ref = est
    assert np.all(np.abs(ref - coarse) <= np.maximum(1e-14, rel_tol * np.abs(ref)))
    return ref.reshape(grid.steps, grid.n_x1 - 1)


POWERS = (1.0, 2.0, 3.0, 1.125, 1.25, 1.375)


@pytest.mark.parametrize("nu", POWERS)
def test_power_solve_matches_graded_quadrature(nu):
    # z = y / 2 sqrt(t) runs from 0.25 to 64, past the cut at z = 30
    g = SpaceTimeGrid(dim=1, x1_max=32.0, x1_cells=64, t_max=1.0, steps=16)
    data = BoundaryData.from_power(nu, g.times, scales=[1.0, -2.5])
    v = solve_halfline(data, g).values[:, 1:, 1:]
    ref = graded_solve(lambda t: t**nu, g)
    assert np.allclose(v, data.path_scales[:, None, None] * ref, rtol=0.0, atol=1e-13)
    if nu > 1.0:
        d = dt_v(data, g).values[:, 1:, 1:]
        ref = graded_solve(lambda t: nu * t ** (nu - 1.0), g)
        assert np.allclose(d, data.path_scales[:, None, None] * ref, rtol=0.0, atol=1e-13)


def test_power_solve_is_finite_where_pbdv_would_fail():
    # at t = 2.5e-7 and y = 2, z = 2000: scipy's pbdv returns NaN there
    g = SpaceTimeGrid(dim=1, x1_max=2.0, x1_cells=64, t_max=1e-6, steps=4)
    t, y = np.meshgrid(g.times[1:], g.x1_nodes[1:], indexing="ij")
    z = y / (2.0 * np.sqrt(t))
    assert z.max() > 1467.0 and z.min() < 27.0
    for nu in POWERS:
        data = BoundaryData.from_power(nu, g.times)
        fields = [solve_halfline(data, g)] + ([dt_v(data, g)] if nu > 1.0 else [])
        for f in fields:
            inner = f.values[0, 1:, 1:]
            assert np.all(np.isfinite(f.values))
            assert np.all(inner[z >= 30.0] == 0.0) and np.any(inner[z < 27.0] != 0.0)
        ref = graded_solve(lambda t: t**nu, g)
        assert np.allclose(fields[0].values[0, 1:, 1:], ref, rtol=0.0, atol=1e-13 * 1e-6**nu)


# -- sampled data: closed form against the knot-mesh quadrature -------


def _knot_mesh(t, y, knots, max_width=0.5):
    """Panel edges in u on [u0, u0 + 8], with an edge at every knot's kink
    u = y / (2 sqrt(t - t_k)) and no panel wider than max_width."""
    u0 = y / (2.0 * math.sqrt(t))
    hi = u0 + _U_WINDOW
    tk = np.asarray(knots, dtype=float)
    uk = y / (2.0 * np.sqrt(t - tk[(tk > 0.0) & (tk < t)]))
    edges = np.unique(np.concatenate([[u0, hi], uk[(uk > u0) & (uk < hi)]]))
    out = [edges[:1]]
    for e0, e1 in zip(edges[:-1], edges[1:]):
        n = max(1, int(math.ceil((e1 - e0) / max_width)))
        out.append(np.linspace(e0, e1, n + 1)[1:])
    return np.concatenate(out)


def _quadrature_point(spline, t, y, knots, rel_tol, data_scale, max_panels=1600):
    """Reference: 12-point Gauss-Legendre of the substituted convolution on a
    knot-aligned mesh, bisected until two estimates agree to rel_tol of
    max(|value|, data_scale).  Returns the values of all paths at (t, y)."""
    edges = _knot_mesh(t, y, knots)

    def estimate(edges):
        u, wt = _panel_rule(edges, 12)
        tau = np.clip(t - y * y / (4.0 * u * u), 0.0, t)
        wt = halfline._TWO_OVER_SQRTPI * wt * np.exp(-u * u)
        return (wt[:, None] * spline(tau)).sum(axis=0)

    prev = estimate(edges)
    while 2 * (len(edges) - 1) <= max_panels:
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
        cur = estimate(edges)
        scale = max(float(np.max(np.abs(cur))), data_scale)
        if float(np.max(np.abs(cur - prev))) <= rel_tol * scale + 1e-15:
            return cur
        prev = cur
    raise AssertionError(f"reference quadrature did not settle at (t={t}, y={y})")


def quadrature_solve(data, grid, derivative=False, rel_tol=1e-12):
    """The reference on every interior node, shaped (paths, nt - 1, ny - 1).
    It interpolates the samples with scipy's CubicSpline, not with the
    library's coefficients."""
    samples = data.h_prime if derivative else data.h
    spline = CubicSpline(data.times, samples.T, axis=0)
    scale = float(np.max(np.abs(samples)))
    rows = [
        [_quadrature_point(spline, t, y, data.times, rel_tol, scale) for y in grid.x1_nodes[1:]]
        for t in grid.times[1:]
    ]
    return np.moveaxis(np.array(rows), -1, 0)


def smooth_sampled(times, paths, seed):
    """Sums of sin(w t) - w t, t^2 and t^3 with random weights, so that
    h(0) = h'(0) = 0; h and h' are divided by max |h| (unit data scale)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (4, paths, 1))
    w = rng.uniform(0.5, 6.0, (2, paths, 1))
    t = times[None, :]
    h = a[0] * (np.sin(w[0] * t) - w[0] * t) + a[1] * (np.sin(w[1] * t) - w[1] * t)
    hp = a[0] * w[0] * (np.cos(w[0] * t) - 1.0) + a[1] * w[1] * (np.cos(w[1] * t) - 1.0)
    h, hp = h + a[2] * t**2 + a[3] * t**3, hp + 2.0 * a[2] * t + 3.0 * a[3] * t**2
    scale = np.max(np.abs(h))
    return BoundaryData.from_samples(h / scale, hp / scale, times)


@pytest.mark.parametrize("steps", [1, 2, 3, 8])
def test_sampled_solve_matches_knot_mesh_quadrature(steps):
    # 1 and 2 steps give the 2- and 3-knot splines (a line, a parabola)
    g = SpaceTimeGrid(dim=1, x1_max=2.0, x1_cells=8, t_max=1.0, steps=steps)
    for seed in (0, 1, 2):
        data = smooth_sampled(g.times, 3, seed)
        v = solve_halfline(data, g).values[:, 1:, 1:]
        assert np.allclose(v, quadrature_solve(data, g), rtol=0.0, atol=1e-13)
        d = dt_v(data, g).values[:, 1:, 1:]
        ref = quadrature_solve(data, g, derivative=True)
        assert np.allclose(d, ref, rtol=0.0, atol=1e-13 * float(np.max(np.abs(data.h_prime))))


def test_sampled_cubic_matches_oracle_where_exp_underflows():
    # z = y / 2 sqrt(s) reaches 64, far past exp(-z^2) underflowing near
    # z = 27; the oracle takes i^6 erfc from the parabolic cylinder function,
    # not from the upward recurrence the solve uses
    g = SpaceTimeGrid(dim=1, x1_max=64.0, x1_cells=256, t_max=1.0, steps=4)
    data = BoundaryData.from_samples((g.times**3)[None, :], (3.0 * g.times**2)[None, :], g.times)
    v = solve_halfline(data, g).values[0, 1:, 1:]
    assert np.allclose(v, power_oracle(g, 3, lambda z: frac_ierfc(6.0, z)), rtol=0.0, atol=1e-13)
    assert np.all(v[:, -1] == 0.0)


def test_sampled_solve_of_a_rough_path_stays_within_the_old_tolerance():
    # on a random walk the cubic jumps are ~3e5 times the data scale and
    # the truncated-power sum cancels: its error is ~1.5e-10 of the scale,
    # far above rounding but inside the 1e-7 of scale that the pipeline's
    # kernel check asked of the quadrature
    g = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=4, t_max=1.0, steps=128)
    walk = 1e-3 * np.cumsum(np.random.default_rng(5).normal(size=g.steps))
    h = np.concatenate([[0.0], walk])[None, :]
    data = BoundaryData.from_samples(h, np.zeros_like(h), g.times)
    v = solve_halfline(data, g).values[:, 1:, 1:]
    ref = quadrature_solve(data, g, rel_tol=1e-10)
    assert float(np.max(np.abs(v - ref))) <= 1e-7 * float(np.max(np.abs(h)))


# -- stability gap ----------------------------------------------------


def test_stability_gap_identical_data_is_flat():
    g = vgrid(cells=6)
    d = t2_data(g.times)
    rep = stability_gap(d, d, g)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


def test_stability_gap_deterministic_pair():
    g = vgrid(cells=10)
    d1 = t2_data(g.times)
    d2 = BoundaryData.from_power(2, g.times, scales=[0.5])
    rep = stability_gap(d1, d2, g, gamma=2.0)
    # data gap h1' - h2' = t peaks at T = 1, so rhs = 1
    assert rep.rhs == pytest.approx(1.0)
    assert rep.lhs <= 1.05 * rep.rhs
    assert rep.passed
    assert rep.ratio == rep.lhs / rep.rhs


@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_stability_gap_forms_its_moment_in_place(gamma):
    # 200 paths: each dt_v field is 0.9 MB; the gap is formed in the first
    g = SpaceTimeGrid(dim=1, x1_max=2.0, x1_cells=16, t_max=1.0, steps=32)
    xi = np.random.default_rng(3).normal(size=200)
    d1 = BoundaryData.from_power(2, g.times, scales=xi)
    d2 = BoundaryData.from_power(2, g.times, scales=0.9 * xi)
    tracemalloc.start()
    try:
        rep = stability_gap(d1, d2, g, gamma=gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = 200 * (g.steps + 1) * g.n_x1 * 8
    assert peak < 2.5 * field  # the two dt_v fields; no difference, abs or power beside them
    moment = np.mean(np.abs(dt_v(d1, g).values - dt_v(d2, g).values) ** gamma, axis=0)
    assert rep.lhs == float(np.max(moment))  # the bits of the whole-array form


def test_stability_gap_validates_inputs():
    g = vgrid(cells=4)
    d = t2_data(g.times)
    with pytest.raises(ValueError, match="gamma"):
        stability_gap(d, d, g, gamma=1.0)
    # gamma = inf once gave lhs = rhs = 1.0 and a pass
    for gamma in (math.inf, math.nan):
        with pytest.raises(ValueError, match="gamma must be finite"):
            stability_gap(d, d, g, gamma=gamma)
    other = BoundaryData.from_power(2, g.times, scales=[1.0, 2.0])
    with pytest.raises(ValueError, match="paths"):
        stability_gap(d, other, g)
