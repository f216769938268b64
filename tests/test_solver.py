"""Semi-implicit scheme: admissibility, exactness, convergence, oracles."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import solve_banded

from spdelab import (
    BlowUpError,
    FieldEnsemble,
    Forcing,
    ModelCoefficients,
    ModelError,
    SeedSpec,
    SpaceTimeGrid,
    check_compatibility,
    check_parabolicity,
    coarsen,
    continuity_step,
    halfline_heat_dirichlet,
    interpolate_coefficients,
    laplace_coefficients,
    solve_model_halfspace,
    solve_periodic_line,
    wiener_increments,
)
from spdelab.solver import _DirichletLine

SEED = SeedSpec(master_seed=31415, stream_salt=2)

# one-dimensional test closed form: E|u^_1(t)|^2 = (1/4) e^{-(2a - s^2) t}
# for u0 = cos x under du = a u'' dt + s u' dw, frozen at a = s = 1, t = 1/2
MODE_MOMENT = 0.15163266492815836


def wallgrid(cells=8, steps=16, t_max=0.016, x1_max=1.0):
    return SpaceTimeGrid(dim=1, x1_max=x1_max, x1_cells=cells, t_max=t_max, steps=steps)


def noise_for(grid, paths=4, n_modes=1):
    return wiener_increments(SEED, paths, grid.steps, n_modes=n_modes, dt=grid.dt)


def mode_field(grid, profile, paths=1, n_modes=1):
    vals = np.zeros((paths, grid.steps + 1, grid.n_x1, n_modes))
    vals[..., 0] = profile(grid.x1_nodes)[None, None, :]
    return FieldEnsemble(vals, grid, n_modes=n_modes)


# -- admissibility ----------------------------------------------------


def test_parabolicity_accepts_and_rejects():
    ok = ModelCoefficients.make(1, np.array([[1.0]]), np.array([[1.0]]))
    rep = check_parabolicity(ok)
    assert rep.passed and rep.lower_margin >= 0.0 and rep.upper_margin >= 0.0
    # 2a - sigma sigma^T falls below kappa
    bad = ModelCoefficients.make(1, np.array([[0.6]]), np.array([[1.0]]), kappa=1.0)
    assert not check_parabolicity(bad).passed


def test_parabolicity_upper_bound():
    big = ModelCoefficients.make(1, np.array([[5.0]]), np.array([[0.0]]), bound=4.0)
    rep = check_parabolicity(big)
    assert not rep.passed and rep.upper_margin < 0.0


def test_compatibility_flags_normal_noise():
    tang = ModelCoefficients.make(
        2, np.eye(2), np.array([[0.0], [0.8]]), kappa=0.5, bound=4.0
    )
    assert check_compatibility(tang).passed
    normal = ModelCoefficients.make(
        2, np.eye(2), np.array([[0.8], [0.0]]), kappa=0.5, bound=4.0
    )
    rep = check_compatibility(normal)
    assert not rep.passed
    assert rep.max_normal_component == pytest.approx(0.8)


def test_interpolated_family_endpoints():
    co = ModelCoefficients.make(1, np.array([[2.0]]), np.array([[1.0]]), kappa=0.5)
    at1 = interpolate_coefficients(co, 1.0)
    assert at1.a[0, 0] == pytest.approx(2.0)
    assert at1.sigma[0, 0] == pytest.approx(1.0)
    at0 = interpolate_coefficients(co, 0.0)
    assert at0.a[0, 0] == pytest.approx(1.0)  # plain Laplacian
    assert at0.sigma[0, 0] == 0.0


@pytest.mark.parametrize(
    "dim, a, sigma, expected",
    [
        (2, 2.0, np.zeros((2, 1)), r"a must have shape \(2, 2\)"),
        (1, np.array([[1.9, 0.0]]), np.zeros((1, 1)), r"a must have shape \(1, 1\)"),
        (2, np.eye(2), np.zeros(2), r"sigma must have shape \(2, 1\)"),
    ],
)
def test_coefficient_shapes_are_exact(dim, a, sigma, expected):
    # a scalar or a short row is refused rather than broadcast
    with pytest.raises(ModelError, match=expected):
        ModelCoefficients.make(dim, a, sigma)


# -- scheme guards ----------------------------------------------------


def test_zero_data_stays_zero():
    g = wallgrid()
    u = solve_model_halfspace(laplace_coefficients(1), Forcing(), g, noise_for(g))
    assert np.all(u.values == 0.0)
    assert u.values.shape == (4, g.steps + 1, g.n_x1)


def test_solution_is_linear_in_the_data():
    g = wallgrid()
    noise = noise_for(g, paths=3)
    f = FieldEnsemble(
        np.broadcast_to(
            np.sin(np.pi * g.x1_nodes), (1, g.steps + 1, g.n_x1)
        ).copy(),
        g,
    )
    gf = mode_field(g, lambda x: x * (1.0 - x))
    co = ModelCoefficients.make(1, np.array([[1.0]]), np.array([[0.5]]), kappa=0.5)
    u1 = solve_model_halfspace(co, Forcing(f=f, g=gf), g, noise)
    doubled = Forcing(
        f=FieldEnsemble(2.0 * f.values, g),
        g=FieldEnsemble(2.0 * gf.values, g, n_modes=1),
    )
    u2 = solve_model_halfspace(co, doubled, g, noise)
    assert np.allclose(u2.values, 2.0 * u1.values, rtol=1e-12, atol=1e-14)


def test_dirichlet_walls_are_pinned():
    g = wallgrid()
    gf = mode_field(g, lambda x: np.sin(np.pi * x), paths=1)
    u = solve_model_halfspace(laplace_coefficients(1), Forcing(g=gf), g, noise_for(g, 2))
    assert np.all(u.values[:, :, 0] == 0.0)
    assert np.all(u.values[:, :, -1] == 0.0)
    assert np.any(u.values[:, :, 1:-1] != 0.0)


def test_time_step_restriction_is_enforced():
    g = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=8, t_max=0.5, steps=10)
    with pytest.raises(ModelError, match="stability restriction"):
        solve_model_halfspace(laplace_coefficients(1), Forcing(), g, noise_for(g))


def test_noise_shape_mismatches_are_rejected():
    g = wallgrid()
    wrong_steps = wiener_increments(SEED, 2, g.steps + 1, dt=g.dt)
    with pytest.raises(ModelError):
        solve_model_halfspace(laplace_coefficients(1), Forcing(), g, wrong_steps)
    wrong_dt = wiener_increments(SEED, 2, g.steps, dt=2.0 * g.dt)
    with pytest.raises(ModelError):
        solve_model_halfspace(laplace_coefficients(1), Forcing(), g, wrong_dt)
    wrong_modes = wiener_increments(SEED, 2, g.steps, n_modes=3, dt=g.dt)
    with pytest.raises(ModelError):
        solve_model_halfspace(laplace_coefficients(1), Forcing(), g, wrong_modes)


def test_periodic_line_checks_the_noise_variance():
    per = SpaceTimeGrid(
        dim=1, x1_max=1.0, x1_cells=8, t_max=0.002, steps=2, periodic_x1=True
    )
    wrong_dt = wiener_increments(SEED, 2, per.steps, dt=2.0 * per.dt)
    with pytest.raises(ModelError, match="variance"):
        solve_periodic_line(laplace_coefficients(1), Forcing(), per, wrong_dt)


def test_grid_kind_routing():
    per = SpaceTimeGrid(
        dim=1, x1_max=1.0, x1_cells=8, t_max=0.002, steps=2, periodic_x1=True
    )
    wall = wallgrid(steps=2, t_max=0.002)
    with pytest.raises(ModelError):
        solve_model_halfspace(laplace_coefficients(1), Forcing(), per, noise_for(per))
    with pytest.raises(ModelError):
        solve_periodic_line(laplace_coefficients(1), Forcing(), wall, noise_for(wall))


def test_inadmissible_coefficients_are_refused():
    g = wallgrid()
    bad = ModelCoefficients.make(1, np.array([[0.6]]), np.array([[1.0]]), kappa=1.0)
    with pytest.raises(ModelError, match="admissible"):
        solve_model_halfspace(bad, Forcing(), g, noise_for(g))


def test_forcing_validation():
    g = wallgrid()
    other = wallgrid(cells=12)
    f_wrong = FieldEnsemble(np.zeros((1, other.steps + 1, other.n_x1)), other)
    with pytest.raises(Exception):
        solve_model_halfspace(
            laplace_coefficients(1), Forcing(f=f_wrong), g, noise_for(g)
        )
    g_wrong = mode_field(g, lambda x: x, n_modes=2)
    with pytest.raises(ModelError, match="modes"):
        solve_model_halfspace(
            laplace_coefficients(1), Forcing(g=g_wrong), g, noise_for(g)
        )


def test_zero_order_blowup_is_detected():
    # one non-finite forcing value at (path 2, slice j) poisons the
    # explicit part of step j + 1, before the direct solve sees it
    g = wallgrid()
    vals = np.ones((3, g.steps + 1, g.n_x1))
    j = 5
    vals[2, j, 3] = np.inf
    f = FieldEnsemble(vals, g)
    with pytest.raises(BlowUpError) as err:
        solve_model_halfspace(laplace_coefficients(1), Forcing(f=f), g, noise_for(g, 3))
    assert (err.value.path, err.value.step) == (2, j + 1)


# -- the factored Dirichlet line ----------------------------------------


@pytest.mark.parametrize(
    "n, r, columns",
    [
        (1, 0.25, 1),
        (1, 3.0, 5),
        (2, 0.25, 3),
        (2, 1e-3, 1),
        (3, 0.7, 2),
        (8, 0.25, 64),
        (127, 40.0, 7),
    ],
)
def test_dirichlet_line_matches_solve_banded_bitwise(n, r, columns):
    rng = np.random.default_rng(n * 1000 + columns)
    rhs = rng.normal(size=(n, columns)) * 10.0 ** rng.integers(-4, 5, size=(n, columns))
    ab = np.zeros((3, n))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r
    expected = solve_banded((1, 1), ab, rhs)
    line = _DirichletLine(n, r)
    # the solver hands over a transposed (Fortran-ordered) view
    for cols in (rhs, np.ascontiguousarray(rhs.T).T):
        got = line.solve(cols)
        assert got.shape == (n, columns)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("cells", [2, 3])
def test_solvers_run_on_the_smallest_wall_grids(cells):
    # one or two interior unknowns, where a bare dgttrf call is refused
    g = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=cells, t_max=0.02, steps=4)
    gf = mode_field(g, lambda x: np.sin(np.pi * x))
    u = solve_model_halfspace(laplace_coefficients(1), Forcing(g=gf), g, noise_for(g, 2))
    assert np.all(np.isfinite(u.values))
    assert np.all(u.values[:, :, [0, -1]] == 0.0)
    assert np.any(u.values[:, 1:, 1:-1] != 0.0)
    wall = np.broadcast_to(g.times**2, (2, g.steps + 1)).copy()
    out = halfline_heat_dirichlet(wall, g)
    assert np.all(out[:, :, 0] == wall) and np.all(out[:, :, -1] == 0.0)
    if cells == 2:
        # a single unknown: each backward-Euler step is one division
        r = g.dt / g.dx1**2
        for j in range(g.steps):
            step = (out[:, j, 1] + r * wall[:, j + 1]) / (1.0 + 2.0 * r)
            assert np.array_equal(out[:, j + 1, 1], step)


# -- oracles ----------------------------------------------------------


def test_periodic_mode_moment_matches_closed_form():
    g = SpaceTimeGrid(
        dim=1, x1_max=2.0 * np.pi, x1_cells=32, t_max=0.5, steps=500, periodic_x1=True
    )
    co = ModelCoefficients.make(1, np.array([[1.0]]), np.array([[1.0]]))
    paths = 1000
    noise = wiener_increments(SEED, paths, g.steps, dt=g.dt)
    u0 = np.broadcast_to(np.cos(g.x1_nodes), (paths, g.n_x1)).copy()
    u_end = solve_periodic_line(co, Forcing(), g, noise, u0=u0)
    mode = np.abs(np.fft.rfft(u_end, axis=1)[:, 1] / g.n_x1) ** 2
    assert float(mode.mean()) == pytest.approx(MODE_MOMENT, rel=0.05)


def test_coupled_noise_strong_convergence():
    # driving each level with the aggregated fine increments makes the
    # pathwise gap contract at first order or better
    g0 = wallgrid()
    grids = [g0, g0.refine(), g0.refine().refine()]
    fine = wiener_increments(SEED, 64, grids[-1].steps, dt=grids[-1].dt)
    sols = []
    for k, g in enumerate(grids):
        noise = coarsen(fine, 4 ** (len(grids) - 1 - k))
        gf = mode_field(g, lambda x: np.sin(np.pi * x))
        sols.append(
            solve_model_halfspace(laplace_coefficients(1), Forcing(g=gf), g, noise).values
        )
    e01 = np.sqrt(np.mean((sols[0] - sols[1][:, ::4, ::2]) ** 2))
    e12 = np.sqrt(np.mean((sols[1] - sols[2][:, ::4, ::2]) ** 2))
    assert e01 / e12 >= 2.0


# -- continuity map ---------------------------------------------------


def test_continuity_step_at_the_base_point():
    g = wallgrid()
    co = ModelCoefficients.make(1, np.array([[1.5]]), np.array([[0.5]]), kappa=0.5)
    noise = noise_for(g, paths=2)
    f = FieldEnsemble(
        np.broadcast_to(np.sin(np.pi * g.x1_nodes), (1, g.steps + 1, g.n_x1)).copy(), g
    )
    rng = np.random.default_rng(4)
    v_any = FieldEnsemble(rng.normal(size=(2, g.steps + 1, g.n_x1)), g)
    v_zero = FieldEnsemble(np.zeros((2, g.steps + 1, g.n_x1)), g)
    s0 = 0.5
    a = continuity_step(co, s0, s0, v_any, Forcing(f=f), g, noise)
    b = continuity_step(co, s0, s0, v_zero, Forcing(f=f), g, noise)
    # at s = s0 the operator increment vanishes, so the iterate is inert
    assert np.allclose(a.values, b.values, atol=1e-14)


def test_continuity_step_from_zero_iterate_is_base_solve():
    g = wallgrid()
    co = ModelCoefficients.make(1, np.array([[1.5]]), np.array([[0.5]]), kappa=0.5)
    noise = noise_for(g, paths=2)
    f = FieldEnsemble(
        np.broadcast_to(np.sin(np.pi * g.x1_nodes), (1, g.steps + 1, g.n_x1)).copy(), g
    )
    v_zero = FieldEnsemble(np.zeros((2, g.steps + 1, g.n_x1)), g)
    stepped = continuity_step(co, 0.75, 0.0, v_zero, Forcing(f=f), g, noise)
    base = solve_model_halfspace(
        interpolate_coefficients(co, 0.0), Forcing(f=f), g, noise
    )
    assert np.allclose(stepped.values, base.values, atol=1e-14)
