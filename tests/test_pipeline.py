"""Wall decomposition u = U + V0 + V1 + w and its residual diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from spdelab import (
    BoundaryData,
    FieldEnsemble,
    ModelCoefficients,
    ModelError,
    PipelineOutput,
    SeedSpec,
    SpaceTimeGrid,
    decompose_pipeline,
    halfline_heat_dirichlet,
    solve_halfline,
    wiener_increments,
)
from spdelab.pipeline import SPINUP_FRACTION

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


def test_profile_solver_carries_wall_data_exactly():
    g = grid1(cells=8, steps=8)
    wall = (g.times**2)[None, :]
    out = halfline_heat_dirichlet(wall, g)
    assert out.shape == (1, g.steps + 1, g.n_x1)
    assert np.array_equal(out[:, 1:, 0], wall[:, 1:])
    assert np.all(out[:, 0] == 0.0)
    assert np.all(out[:, :, -1] == 0.0)


def test_profile_solver_rejects_warm_start():
    g = grid1(cells=8, steps=8)
    wall = np.ones((1, g.steps + 1))
    with pytest.raises(ModelError, match="t = 0"):
        halfline_heat_dirichlet(wall, g)


def test_profile_solver_tracks_the_kernel_solution():
    g = SpaceTimeGrid(dim=1, x1_max=1.5, x1_cells=24, t_max=0.5, steps=128)
    fd = halfline_heat_dirichlet((g.times**2)[None, :], g)
    data = BoundaryData.from_power(2, g.times)
    kv = solve_halfline(data, g)
    # backward Euler against the closed-form kernel solve, first order in dt
    assert float(np.max(np.abs(fd - kv.values))) < 0.01


# -- decomposition ----------------------------------------------------


def test_zero_forcing_decomposes_to_zero():
    g = grid1(cells=8, steps=64)
    noise = wiener_increments(SEED, 2, g.steps, dt=g.dt)
    out = decompose_pipeline(coeffs1(), const_forcing(g, 0.0), g, noise)
    assert out.wall_residual == 0.0
    assert out.wall_residual_full == 0.0
    assert out.reconstruction_error == 0.0
    assert np.all(out.u.values == 0.0)
    assert np.all(out.remainder.values == 0.0)


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
        out = decompose_pipeline(co, const_forcing(g), g, noise, keep="light")
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


def test_light_mode_drops_bulk_fields():
    g = grid1(cells=8, steps=64)
    noise = wiener_increments(SEED, 2, g.steps, dt=g.dt)
    out = decompose_pipeline(coeffs1(), const_forcing(g), g, noise, keep="light")
    assert isinstance(out, PipelineOutput)
    for name in ("u", "noise_part", "u_tilde", "v0", "v1", "remainder"):
        assert getattr(out, name) is None
    assert out.b.shape == (2, g.steps + 1)
    assert out.residual_profile.shape == (g.steps + 1,)
    with pytest.raises(ValueError):
        decompose_pipeline(coeffs1(), const_forcing(g), g, noise, keep="none")


def test_observer_sees_every_step():
    g = grid1(cells=8, steps=64)
    noise = wiener_increments(SEED, 2, g.steps, dt=g.dt)
    seen = []
    decompose_pipeline(
        coeffs1(),
        const_forcing(g),
        g,
        noise,
        keep="light",
        observer=lambda j, t, u: seen.append((j, t, u.shape)),
    )
    assert [j for j, _, _ in seen] == list(range(1, g.steps + 1))
    assert all(shape == (2, g.n_x1) for _, _, shape in seen)


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
    out = decompose_pipeline(co, const_forcing(g), g, noise)
    assert np.any(out.noise_part.values != 0.0)
    scale = float(np.max(np.abs(out.u.values)))
    assert out.reconstruction_error < 1e-12 * max(scale, 1.0)
    assert out.b.shape == (3, g.steps + 1, g.n_xp)
    assert np.isfinite(out.wall_residual)


def test_normal_noise_is_rejected():
    g = grid2()
    co = ModelCoefficients.make(
        2, np.eye(2), np.array([[0.5], [0.0]]), kappa=0.5, bound=4.0
    )
    noise = wiener_increments(SEED, 2, g.steps, dt=g.dt)
    with pytest.raises(ModelError, match="normal noise"):
        decompose_pipeline(co, const_forcing(g), g, noise)
