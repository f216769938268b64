"""Wall decomposition u = U + V0 + V1 + w and its residual diagnostics."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import solve_banded

from spdelab import (
    BoundaryData,
    FieldEnsemble,
    Forcing,
    ModelCoefficients,
    ModelError,
    PipelineOutput,
    SeedSpec,
    SpaceTimeGrid,
    decompose_pipeline,
    finite_diff,
    solve_halfline,
    solve_model_halfspace,
    wiener_increments,
)
from spdelab import pipeline, solver
from spdelab.fields import _diff
from spdelab.pipeline import SPINUP_FRACTION, _line_step, _wall_diff
from spdelab.solver import _DirichletLine

SEED = SeedSpec(master_seed=11, stream_salt=0)


def grid1(cells=16, steps=128, t_max=0.02):
    return SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=cells, t_max=t_max, steps=steps)


def const_forcing(grid, amplitude=1.0):
    return FieldEnsemble(
        np.full((1, grid.steps + 1) + grid.space_shape, amplitude), grid
    )


def coeffs1(a11=1.5):
    return ModelCoefficients.make(
        1, np.array([[a11]]), np.array([[0.0]]), kappa=0.5, bound=4.0
    )


# -- scalar profile solver --------------------------------------------


def line_history(wall, g):
    """The pipeline's line step from a zero profile, every slice kept."""
    r = g.dt / g.dx1**2
    line = _DirichletLine(g.n_x1 - 2, r)
    w = np.zeros((g.n_x1, wall.shape[0]))  # x1 first
    inner = np.zeros((line.n, wall.shape[0]), order="F")  # the rows the step writes in place
    out = [w.copy()]
    for j in range(1, g.steps + 1):
        _line_step(line, r, inner, wall[:, j])
        w[0], w[1:-1] = wall[:, j], inner
        out.append(w.copy())
    return np.moveaxis(np.stack(out), -1, 0)  # (paths, steps + 1, n_x1)


def test_profile_solver_carries_wall_data_exactly():
    g = grid1(cells=8, steps=8)
    wall = (g.times**2)[None, :]
    out = line_history(wall, g)
    assert out.shape == (1, g.steps + 1, g.n_x1)
    assert np.array_equal(out[:, 1:, 0], wall[:, 1:])
    assert np.all(out[:, 0] == 0.0)
    assert np.all(out[:, :, -1] == 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_one_line_step_of_stacked_profiles_is_two_steps_to_the_bit(dim):
    # W0 (three noise paths) and W1 (one forcing path) share one dgttrs call,
    # side by side in one Fortran-ordered buffer of interior rows
    g = grid1(cells=16) if dim == 1 else grid2()
    r = g.dt / g.dx1**2
    line = _DirichletLine(g.n_x1 - 2, r)
    rng = np.random.default_rng(3)
    m = g.n_xp if dim == 2 else 1
    w0, w1 = (np.asfortranarray(rng.standard_normal((line.n, m * k))) for k in (3, 1))
    h0, h1 = rng.standard_normal(m * 3), rng.standard_normal(m)
    both = np.asfortranarray(np.concatenate((w0, w1), axis=1))
    _line_step(line, r, both, np.concatenate((h0, h1)))
    _line_step(line, r, w0, h0)
    _line_step(line, r, w1, h1)
    assert np.array_equal(both[:, : m * 3], w0) and np.array_equal(both[:, m * 3 :], w1)


@pytest.mark.parametrize("n1, n2", [(2, 0), (1, 1)])
def test_wall_closure_is_row_zero_of_the_full_stencil(n1, n2):
    g = grid2()
    v = np.random.default_rng(4).standard_normal(g.space_shape + (3,))
    full = _diff(v, g.dx1, 0, False, n1)
    full = _diff(full, g.dxp, 1, True, n2) if n2 else full
    assert np.array_equal(_wall_diff(v, n1, n2, g), full[0])


def test_profile_solver_tracks_the_kernel_solution():
    g = SpaceTimeGrid(dim=1, x1_max=1.5, x1_cells=24, t_max=0.5, steps=128)
    fd = line_history((g.times**2)[None, :], g)
    data = BoundaryData.from_power(2, g.times)
    kv = solve_halfline(data, g)
    # backward Euler against the closed-form kernel solve, first order in dt
    assert float(np.max(np.abs(fd - kv.values))) < 0.01


# -- decomposition ----------------------------------------------------


def test_zero_forcing_decomposes_to_zero():
    g = grid1(cells=8, steps=64)
    noise = wiener_increments(SEED, 2, g.steps, dt=g.dt)
    u = solve_model_halfspace(coeffs1(), Forcing(f=const_forcing(g, 0.0)), g, noise)
    out = decompose_pipeline(coeffs1(), const_forcing(g, 0.0), g, noise)
    assert out.wall_residual == 0.0
    assert out.wall_residual_full == 0.0
    assert out.reconstruction_error == 0.0
    assert np.all(u.values == 0.0) and out.noise_part_max == 0.0
    assert np.all(out.b == 0.0) and np.all(out.cap_h == 0.0)
    assert np.all(out.residual_profile == 0.0)


def test_constant_forcing_has_explicit_wall_data():
    a11 = 1.5
    g = grid1()
    noise = wiener_increments(SEED, 2, g.steps, dt=g.dt)
    out = decompose_pipeline(coeffs1(a11), const_forcing(g), g, noise)
    # b = f / a11 with no translation corrections in one dimension
    assert np.all(out.b == 1.0 / a11)
    assert np.all(out.c == 1.0 / a11)
    # b - c vanishes identically so H and its slope defect are exact zeros
    assert np.all(out.cap_h == 0.0)
    assert out.h_slope_defect == 0.0
    assert out.reconstruction_error < 1e-14


def test_starting_corner_value_is_structural():
    # at t = 0 the profiles vanish, so the residual trace equals
    # (a11 - 1) b(0) + f(0) - b(0) exactly; with f = 1, a11 = 3/2 the
    # squared value is 1/9 and cannot decay with the grid
    g = grid1()
    noise = wiener_increments(SEED, 2, g.steps, dt=g.dt)
    out = decompose_pipeline(coeffs1(1.5), const_forcing(g), g, noise)
    assert out.residual_profile[0] == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert out.wall_residual_full == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert out.wall_residual < out.wall_residual_full


def test_windowed_residual_shrinks_under_refinement():
    co = coeffs1()
    levels = []
    for cells, steps in ((16, 128), (32, 512)):
        g = grid1(cells=cells, steps=steps)
        noise = wiener_increments(SEED, 2, g.steps, dt=g.dt)
        out = decompose_pipeline(co, const_forcing(g), g, noise)
        levels.append(out.wall_residual)
    assert levels[1] < levels[0] / 4.0  # first order in E|F|^2 at least
    # spin-up window: the profile index set respects the fraction
    assert SPINUP_FRACTION == 0.125


def test_time_ramp_forcing_builds_quadratic_h():
    a11 = 1.5
    g = grid1()
    noise = wiener_increments(SEED, 1, g.steps, dt=g.dt)
    vals = np.broadcast_to(
        (1.0 + g.times)[None, :, None], (1, g.steps + 1, g.n_x1)
    ).copy()
    out = decompose_pipeline(
        coeffs1(a11), FieldEnsemble(vals, g), g, noise, kernel_check=True
    )
    # b = (1 + t)/a11, c = 1/a11, H = t^2 / (2 a11); trapezoid is exact
    # on linear integrands
    expect = g.times**2 / (2.0 * a11)
    assert np.allclose(out.cap_h[0], expect, atol=1e-15)
    assert out.kernel_gap is not None and out.kernel_gap < 1e-2


def test_output_holds_wall_histories_and_scalars_only():
    g = grid1(cells=8, steps=64)
    noise = wiener_increments(SEED, 2, g.steps, dt=g.dt)
    out = decompose_pipeline(coeffs1(), const_forcing(g), g, noise)
    assert isinstance(out, PipelineOutput)
    for name in ("u", "noise_part", "u_tilde", "v0", "v1", "remainder"):
        assert not hasattr(out, name)
    assert out.b.shape == out.cap_h.shape == (2, g.steps + 1)
    assert out.c.shape == (2,)
    assert out.residual_profile.shape == (g.steps + 1,)
    with pytest.raises(TypeError):
        decompose_pipeline(coeffs1(), const_forcing(g), g, noise, keep="light")


# -- two space dimensions ---------------------------------------------


def grid2():
    return SpaceTimeGrid(
        dim=2,
        x1_max=1.0,
        x1_cells=16,
        t_max=0.01,
        steps=32,
        xp_max=0.5,
        xp_cells=8,
    )


def test_tangential_noise_splits_cleanly():
    g = grid2()
    co = ModelCoefficients.make(
        2, np.eye(2), np.array([[0.0], [0.5]]), kappa=0.5, bound=4.0
    )
    noise = wiener_increments(SEED, 3, g.steps, dt=g.dt)
    # a forcing that varies along the wall gives the tangential noise a
    # gradient to act on; under a constant one U is rounding noise only
    wave = 1.0 + 0.5 * np.cos(2.0 * np.pi * g.xp_nodes / g.xp_max)
    f = FieldEnsemble(np.broadcast_to(wave, (1, g.steps + 1) + g.space_shape).copy(), g)
    u = solve_model_halfspace(co, Forcing(f=f), g, noise)
    out = decompose_pipeline(co, f, g, noise)
    assert out.noise_part_max > 1e-6
    assert out.reconstruction_error < 1e-12 * max(float(np.max(np.abs(u.values))), 1.0)
    assert out.b.shape == (3, g.steps + 1, g.n_xp)
    assert np.isfinite(out.wall_residual)


def test_a_diffusion_below_the_laplacian_decomposes():
    # u's own noise bound admits this step; U's additive heat step needs none
    g = SpaceTimeGrid(dim=2, x1_max=1.0, x1_cells=16, t_max=0.02, steps=30, xp_max=0.5, xp_cells=8)
    co = ModelCoefficients.make(2, 0.6 * np.eye(2), [[0.0], [0.6]], kappa=0.5, bound=4.0)
    wave = 1.0 + 0.5 * np.cos(2.0 * np.pi * g.xp_nodes / g.xp_max)
    f = FieldEnsemble(np.broadcast_to(wave, (1, g.steps + 1) + g.space_shape), g)
    out = decompose_pipeline(co, f, g, wiener_increments(SEED, 3, g.steps, dt=g.dt))
    assert out.noise_part_max > 0.0
    assert out.reconstruction_error < 1e-12


def test_normal_noise_is_rejected():
    g = grid2()
    co = ModelCoefficients.make(
        2, np.eye(2), np.array([[0.5], [0.0]]), kappa=0.5, bound=4.0
    )
    noise = wiener_increments(SEED, 2, g.steps, dt=g.dt)
    with pytest.raises(ModelError, match="normal noise"):
        decompose_pipeline(co, const_forcing(g), g, noise)


def test_periodic_grid_is_rejected_before_any_step():
    g = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=16, t_max=0.02, steps=128, periodic_x1=True)
    noise = wiener_increments(SEED, 2, g.steps, dt=g.dt)
    with pytest.raises(ModelError, match="wall"):
        decompose_pipeline(coeffs1(), const_forcing(g), g, noise)


def test_one_tangential_gradient_of_u_per_step(monkeypatch):
    # U's heat forcing is u's own noise term, so D'u is formed once per step
    g = grid2()
    co = ModelCoefficients.make(
        2, np.eye(2), np.array([[0.0], [0.5]]), kappa=0.5, bound=4.0
    )
    noise = wiener_increments(SEED, 3, g.steps, dt=g.dt)
    shapes = []

    def counting(values, *args):
        shapes.append(values.shape)
        return _diff(values, *args)

    monkeypatch.setattr(pipeline, "_diff", counting)
    monkeypatch.setattr(solver, "_diff", counting)
    decompose_pipeline(co, const_forcing(g), g, noise)
    assert shapes.count((g.n_x1 - 2, g.n_xp, 3)) == g.steps  # (*unknown space, paths)


# -- the one time pass against the full-history algorithm ---------------


def heat_line(wall, g):
    """Backward-Euler unit heat solve in x1 over whole histories (solve_banded)."""
    r, n = g.dt / g.dx1**2, g.n_x1 - 2
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = -r, 1.0 + 2.0 * r, -r
    out = np.zeros((wall.shape[0], g.steps + 1, g.n_x1) + wall.shape[2:])
    for j in range(g.steps):
        rhs = np.moveaxis(out[:, j, 1:-1], 1, 0).copy()
        rhs[0] += r * wall[:, j + 1]
        sol = solve_banded((1, 1), ab, rhs.reshape(n, -1)).reshape(rhs.shape)
        out[:, j + 1, 1:-1] = np.moveaxis(sol, 0, 1)
        out[:, j + 1, 0] = wall[:, j + 1]
    return out


def tangential(values, h, order):
    """Periodic x' difference of whole histories, by np.roll (kept apart
    from the library's stencils so the reference checks them)."""
    nxt, prev = np.roll(values, -1, 3), np.roll(values, 1, 3)
    return (nxt - prev) / (2 * h) if order == 1 else (nxt - 2 * values + prev) / (h * h)


def full_history_reference(co, f, g, noise):
    """u, U, f_tilde, W0, W1 and F as whole histories, then their wall rows."""
    u = solve_model_halfspace(co, Forcing(f=f), g, noise)
    big = np.zeros_like(u.values)
    if g.dim == 2 and np.any(co.sigma):
        du = tangential(u.values, g.dxp, 1)
        gt = np.stack([co.sigma[1, k] * du for k in range(co.n_modes)], axis=-1)
        heat = ModelCoefficients.make(2, np.eye(2), np.zeros_like(co.sigma))
        gt = FieldEnsemble(gt, g, n_modes=co.n_modes)
        big = solve_model_halfspace(heat, Forcing(g=gt), g, noise).values
    big_f, tilde = FieldEnsemble(big, g), FieldEnsemble(u.values - big, g)
    a, d2 = co.a, (2,) + (0,) * (g.dim - 1)
    ft = np.broadcast_to(f.values, u.values.shape).copy()
    ft += (a[0, 0] - 1.0) * finite_diff(big_f, d2).values
    if g.dim == 2:
        d1_big, d1_tilde = finite_diff(big_f, (1, 0)).values, finite_diff(tilde, (1, 0)).values
        ft += (a[1, 1] - 1.0) * tangential(big, g.dxp, 2)
        ft += 2.0 * (a[0, 1] * tangential(d1_big, g.dxp, 1))
        ft += a[1, 1] * tangential(tilde.values, g.dxp, 2)
        ft += 2.0 * (a[0, 1] * tangential(d1_tilde, g.dxp, 1))
    b = ft[:, :, 0] / a[0, 0]
    c = b[:, 0].copy()
    cap_h = cumulative_trapezoid(b - c[:, None], dx=g.dt, axis=1, initial=0.0)
    ramp = g.times.reshape((1, -1) + (1,) * (g.dim - 1)) * c[:, None]
    w0 = heat_line(-cap_h, g)
    v0, v1 = w0 + cap_h[:, :, None], heat_line(-ramp, g) + ramp[:, :, None]
    remainder = tilde.values - (v0 + v1)
    recon = u.values - (big + v0 + v1 + remainder)
    d11_v = finite_diff(FieldEnsemble(v0 + v1, g), d2).values
    wall_f = ((a[0, 0] - 1.0) * d11_v + ft - b[:, :, None])[:, :, 0]
    moment = np.mean(wall_f * wall_f, axis=0)
    profile = np.max(moment, axis=tuple(range(1, moment.ndim)))
    window = g.times >= SPINUP_FRACTION * g.t_max - 1e-15
    probes = [(0, 0)] + ([(noise.n_paths - 1, g.n_xp // 2)] if g.dim == 2 else [])
    line = SpaceTimeGrid(dim=1, x1_max=g.x1_max, x1_cells=g.x1_cells, t_max=g.t_max, steps=g.steps)
    gap = 0.0
    for path, col in probes:
        tail = (col,) if g.dim == 2 else ()
        sel = (path, slice(None)) + tail
        hp = -(b[sel] - c[(path,) + tail])
        data = BoundaryData.from_samples(-cap_h[sel][None], hp[None], g.times)
        ref = w0[path, :, :, col] if g.dim == 2 else w0[path]
        gap = max(gap, float(np.max(np.abs(solve_halfline(data, line).values[0] - ref))))
    return {
        "b": b,
        "c": c,
        "cap_h": cap_h,
        "residual_profile": profile,
        "wall_residual": float(np.max(profile[window])),
        "wall_residual_full": float(np.max(profile)),
        "reconstruction_error": float(np.max(np.abs(recon))),
        "h_slope_defect": float(np.max(np.abs(b[:, 0] - c))),
        "kernel_gap": gap,
        "noise_part_max": float(np.max(np.abs(big))),
    }


def _streaming_cases():
    rng = np.random.default_rng(5)
    g = grid1()
    f = FieldEnsemble(rng.standard_normal((3, g.steps + 1, g.n_x1)), g)
    yield coeffs1(), f, g, wiener_increments(SEED, 3, g.steps, dt=g.dt)
    g = grid2()
    co = ModelCoefficients.make(
        2, [[1.3, 0.2], [0.2, 1.1]], [[0.0, 0.0], [0.5, -0.3]], kappa=0.5
    )
    f = FieldEnsemble(rng.standard_normal((3, g.steps + 1) + g.space_shape), g)
    yield co, f, g, wiener_increments(SEED, 3, g.steps, 2, dt=g.dt)
    # two interior rows: D11 V on the wall reads the far row, where W is 0
    g = grid1(cells=3)
    f = FieldEnsemble(rng.standard_normal((3, g.steps + 1, g.n_x1)), g)
    yield coeffs1(), f, g, wiener_increments(SEED, 3, g.steps, dt=g.dt)


CASE_IDS = ["dim1", "dim2", "dim1-three-cells"]


@pytest.mark.parametrize("case", list(_streaming_cases()), ids=CASE_IDS)
def test_streamed_decomposition_matches_the_full_history_reference(case):
    # per-path, time-varying f; in 2-D two noise modes and a12 != 0
    co, f, g, noise = case
    out = decompose_pipeline(co, f, g, noise, kernel_check=True)
    for name, expect in full_history_reference(co, f, g, noise).items():
        assert np.array_equal(getattr(out, name), expect), name


@pytest.mark.parametrize("case", list(_streaming_cases()), ids=CASE_IDS)
def test_a_one_path_forcing_decomposes_like_its_copy_on_every_path(case):
    # W1 steps on f's one path, and on every noise path when f is repeated
    co, f, g, noise = case
    one = FieldEnsemble(f.values[1:2], g)
    every = FieldEnsemble(np.repeat(one.values, noise.n_paths, axis=0), g)
    out, ref = (decompose_pipeline(co, x, g, noise, kernel_check=True) for x in (one, every))
    for name in PipelineOutput.__dataclass_fields__:
        assert np.array_equal(getattr(out, name), getattr(ref, name)), name
