"""Semi-implicit scheme: admissibility, exactness, convergence, oracles."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.sparse.linalg import splu

from spdelab import (
    BlowUpError,
    FieldEnsemble,
    Forcing,
    ModelCoefficients,
    ModelError,
    SeedSpec,
    SpaceTimeGrid,
    WienerBatch,
    check_compatibility,
    check_parabolicity,
    coarsen,
    continuity_iterates,
    finite_diff,
    interpolate_coefficients,
    solve_model_halfspace,
    solve_periodic_line,
    wiener_increments,
)
from spdelab import solver
from spdelab.fields import _centred, _ordered_path_sum
from spdelab.pipeline import _line_step
from spdelab.solver import (
    _DirichletLine,
    _integrand,
    _steps,
    _Stepper,
)

SEED = SeedSpec(master_seed=31415, stream_salt=2)

# the pure heat operator: a = I, no noise coefficients
HEAT = ModelCoefficients.make(1, np.eye(1), np.zeros((1, 1)), kappa=1.0, bound=2.5)

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


@pytest.mark.parametrize(
    "bounds", [dict(kappa=np.nan), dict(bound=np.nan), dict(kappa=np.inf), dict(bound=np.inf),
               dict(kappa=0.0), dict(bound=-1.0)]
)
def test_coefficients_refuse_a_kappa_or_bound_that_is_not_positive_and_finite(bounds):
    # NaN passes a bare kappa <= 0 test, and the parabolicity margins then read NaN
    with pytest.raises(ModelError, match="kappa and bound must be positive and finite"):
        ModelCoefficients.make(1, np.array([[1.0]]), np.array([[0.5]]), **bounds)


@pytest.mark.parametrize(
    "a, sigma, name",
    [(1.0, np.nan, "sigma"), (np.inf, 0.5, "a"), (np.nan, 0.5, "a"), (1.0, -np.inf, "sigma")],
)
def test_coefficients_refuse_a_non_finite_a_or_sigma(a, sigma, name):
    # a NaN sigma once gave a NaN parabolicity margin, and a NaN a read as "not symmetric"
    with pytest.raises(ModelError, match=f"{name} must be finite"):
        ModelCoefficients.make(1, np.array([[a]]), np.array([[sigma]]))


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


def test_the_mode_count_is_sigma_s_column_count():
    # one noise mode per column of sigma; no keyword restates it
    assert ModelCoefficients.make(2, np.eye(2), [[0.0, 0.0], [0.7, -0.4]]).n_modes == 2
    assert ModelCoefficients.make(1, [[1.0]], [[0.5]]).n_modes == 1
    with pytest.raises(TypeError, match="n_modes"):
        ModelCoefficients.make(1, [[1.0]], [[0.5]], n_modes=1)
    with pytest.raises(ModelError, match=r"sigma must have shape \(2, 1\), got \(2, 0\)"):
        ModelCoefficients.make(2, np.eye(2), np.zeros((2, 0)))


# -- scheme guards ----------------------------------------------------


def test_zero_data_stays_zero():
    g = wallgrid()
    u = solve_model_halfspace(HEAT, Forcing(), g, noise_for(g))
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
    u = solve_model_halfspace(HEAT, Forcing(g=gf), g, noise_for(g, 2))
    assert np.all(u.values[:, :, 0] == 0.0)
    assert np.all(u.values[:, :, -1] == 0.0)
    assert np.any(u.values[:, :, 1:-1] != 0.0)


def test_time_step_restriction_is_enforced():
    g = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=8, t_max=0.5, steps=10)
    with pytest.raises(ModelError, match="stability restriction"):
        solve_model_halfspace(HEAT, Forcing(), g, noise_for(g))


def test_noise_shape_mismatches_are_rejected():
    g = wallgrid()
    wrong_steps = wiener_increments(SEED, 2, g.steps + 1, dt=g.dt)
    with pytest.raises(ModelError):
        solve_model_halfspace(HEAT, Forcing(), g, wrong_steps)
    wrong_dt = wiener_increments(SEED, 2, g.steps, dt=2.0 * g.dt)
    with pytest.raises(ModelError):
        solve_model_halfspace(HEAT, Forcing(), g, wrong_dt)
    wrong_modes = wiener_increments(SEED, 2, g.steps, n_modes=3, dt=g.dt)
    with pytest.raises(ModelError):
        solve_model_halfspace(HEAT, Forcing(), g, wrong_modes)


def test_periodic_line_checks_the_noise_variance():
    per = SpaceTimeGrid(
        dim=1, x1_max=1.0, x1_cells=8, t_max=0.002, steps=2, periodic_x1=True
    )
    wrong_dt = wiener_increments(SEED, 2, per.steps, dt=2.0 * per.dt)
    with pytest.raises(ModelError, match="variance"):
        solve_periodic_line(HEAT, Forcing(), per, wrong_dt)


def test_grid_kind_routing():
    per = SpaceTimeGrid(
        dim=1, x1_max=1.0, x1_cells=8, t_max=0.002, steps=2, periodic_x1=True
    )
    wall = wallgrid(steps=2, t_max=0.002)
    with pytest.raises(ModelError):
        solve_model_halfspace(HEAT, Forcing(), per, noise_for(per))
    with pytest.raises(ModelError):
        solve_periodic_line(HEAT, Forcing(), wall, noise_for(wall))


def test_periodic_line_needs_three_nodes():
    per = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=2, t_max=0.002, steps=2, periodic_x1=True)
    with pytest.raises(ModelError, match="at least 3 nodes, got 2"):
        solve_periodic_line(HEAT, Forcing(), per, noise_for(per))


def test_inadmissible_coefficients_are_refused():
    g = wallgrid()
    bad = ModelCoefficients.make(1, np.array([[0.6]]), np.array([[1.0]]), kappa=1.0)
    with pytest.raises(ModelError, match="admissible"):
        solve_model_halfspace(bad, Forcing(), g, noise_for(g))


def test_input_checks_build_no_time_axis():
    # the constant coefficients are checked at t_0 alone: a time axis of
    # 2^22 + 1 nodes takes 32 MiB, and the zero-stride noise takes none
    g = wallgrid(steps=2**22, t_max=1e-3)
    noise = WienerBatch(np.broadcast_to(0.0, (2, g.steps, 1)), g.dt)
    tracemalloc.start()
    try:
        solver._check_inputs(HEAT, Forcing(), g, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_forcing_validation():
    g = wallgrid()
    other = wallgrid(cells=12)
    f_wrong = FieldEnsemble(np.zeros((1, other.steps + 1, other.n_x1)), other)
    with pytest.raises(Exception):
        solve_model_halfspace(
            HEAT, Forcing(f=f_wrong), g, noise_for(g)
        )
    g_wrong = mode_field(g, lambda x: x, n_modes=2)
    with pytest.raises(ModelError, match="modes"):
        solve_model_halfspace(
            HEAT, Forcing(g=g_wrong), g, noise_for(g)
        )
    # a forcing slice broadcasts over the paths: one path, or one per path
    f_paths = FieldEnsemble(np.zeros((2, g.steps + 1, g.n_x1)), g)
    with pytest.raises(ModelError, match="forcing f has 2 paths, noise has 4"):
        solve_model_halfspace(HEAT, Forcing(f=f_paths), g, noise_for(g))


def test_zero_order_blowup_is_detected():
    # one non-finite forcing value at (path 2, slice j) poisons the
    # explicit part of step j + 1; the solve keeps it in path 2's column,
    # and the one check after the solve names path 2 at step j + 1
    g = wallgrid()
    vals = np.ones((3, g.steps + 1, g.n_x1))
    j = 5
    vals[2, j, 3] = np.inf
    f = FieldEnsemble(vals, g)
    with pytest.raises(BlowUpError) as err:
        solve_model_halfspace(HEAT, Forcing(f=f), g, noise_for(g, 3))
    assert (err.value.path, err.value.step) == (2, j + 1)


def test_a_wall_node_forcing_value_never_reaches_the_solution():
    # the step reads f on the unknown nodes only, so a non-finite value at
    # x1 = 0 is never stepped and the solve equals the one with a zero there
    g = wallgrid()
    vals = np.ones((3, g.steps + 1, g.n_x1))
    vals[2, 5, 0] = np.inf
    co = ModelCoefficients.make(1, np.array([[1.0]]), np.array([[0.5]]), kappa=0.5)
    u = solve_model_halfspace(co, Forcing(f=FieldEnsemble(vals, g)), g, noise_for(g, 3))
    vals[2, 5, 0] = 0.0
    ref = solve_model_halfspace(co, Forcing(f=FieldEnsemble(vals, g)), g, noise_for(g, 3))
    assert np.all(np.isfinite(u.values)) and np.array_equal(u.values, ref.values)


def stepper_case(dim, paths=4, stack=3):
    """A stepper, a stack of random states laid out (*space, stack, paths),
    one step's noise, drift forcing with a stack axis of one, and the noise
    terms G_k dw^k of a state, whose noise forcing has a stack axis of one."""
    if dim == 1:
        grid = wallgrid()
        co = ModelCoefficients.make(1, np.array([[1.4]]), np.array([[0.6]]), kappa=0.5)
    else:
        grid = SpaceTimeGrid(
            dim=2, x1_max=1.0, x1_cells=6, t_max=0.004, steps=4, xp_max=1.0, xp_cells=6
        )
        # tangential noise in two modes, and a mixed a12 term in the SuperLU factor
        a, sigma = [[1.2, 0.1], [0.1, 1.0]], [[0.0, 0.0], [0.7, -0.4]]
        co = ModelCoefficients.make(2, a, sigma, kappa=0.5)
    step = _Stepper(co.a, grid)
    rng = np.random.default_rng(5)
    u = rng.normal(size=grid.space_shape + (stack, paths))
    unknown = u[step.unknown, ..., :1, :].shape
    f = rng.normal(size=unknown)
    g = rng.normal(size=(co.n_modes,) + unknown)
    dw = noise_for(grid, paths, co.n_modes).increments[:, 1]

    def terms(v):
        return _integrand(co.sigma, v, grid, dw, g)

    return step, u, dw, f, terms


def stepped(step, u, *args):
    """The unknown rows of a copy of u after one step in place."""
    v = u.copy()
    step(v, *args)
    return v[step.unknown]


@pytest.mark.parametrize("dim", [1, 2])
def test_a_stack_steps_like_separate_states(dim):
    # one call on a stack of states equals one call per state, bit for bit
    step, u, dw, f, noise = stepper_case(dim)
    stacked = stepped(step, u, 1, f, noise(u))
    assert stacked.shape == u[step.unknown].shape
    for i in range(u.shape[-2]):
        one = u[..., i : i + 1, :]
        assert np.array_equal(stacked[..., i : i + 1, :], stepped(step, one, 1, f, noise(one)))


def test_a_blowup_in_a_stack_names_the_path():
    step, u, dw, f, noise = stepper_case(1)
    u[3, 1, 2] = np.inf  # x1 node 3 of stack entry 1, path 2
    with pytest.raises(BlowUpError) as err:
        step(u, 4, f, noise(u))
    assert (err.value.path, err.value.step) == (2, 5)


@pytest.mark.parametrize("dim", [1, 2])
def test_a_non_finite_right_hand_side_stays_in_its_own_solve_column(dim):
    # what lets the step check once, after the solve: dgttrs (1-D) and
    # SuperLU (2-D) leave every other column bit-equal to the clean solve
    step, u, _, _, _ = stepper_case(dim, paths=6, stack=2)
    rhs = u[step.unknown].reshape(-1, 12)
    clean = step.matrix.solve(rhs)
    rhs[2, 7] = np.inf
    poisoned = step.matrix.solve(rhs)
    assert not np.all(np.isfinite(poisoned[:, 7]))
    others = np.arange(12) != 7
    assert np.array_equal(poisoned[:, others], clean[:, others])


def test_one_check_after_the_solve_names_the_first_bad_path_and_step():
    # a 2-D stack: one poisoned drift value, at one node of one path, makes
    # that path's explicit stage non-finite; the solve keeps it in its column
    step, u, dw, f, noise = stepper_case(2, paths=6, stack=2)
    bad = f.copy()
    bad[2, 3, 0, 4] = np.inf
    with pytest.raises(BlowUpError) as err:
        step(u, 2, bad, noise(u))
    assert (err.value.path, err.value.step) == (4, 3)
    # paths 2 and 5 poisoned at different nodes: the first path is named,
    # although path 5's node comes first in the space-first array
    bad = f.copy()
    bad[0, 0, 0, 5] = np.nan
    bad[3, 5, 0, 2] = -np.inf
    with pytest.raises(BlowUpError) as err:
        step(u, 2, bad, noise(u))
    assert (err.value.path, err.value.step) == (2, 3)
    # the stack axis comes before the path axis: stack entry 0 path 5
    # is named ahead of stack entry 1 path 1
    bad = u.copy()
    bad[1, 0, 1, 1] = np.inf
    bad[2, 2, 0, 5] = np.inf
    with pytest.raises(BlowUpError) as err:
        step(bad, 6, f, noise(u))
    assert (err.value.path, err.value.step) == (5, 7)


# -- periodic stencil matrices -------------------------------------------


def lil_periodic(n, h, order):
    """Reference: the periodic stencil filled row by row with wrap indices."""
    m = sp.lil_matrix((n, n))
    for i in range(n):
        if order == 2:
            m[i, i] = -2.0
            m[i, (i - 1) % n] = 1.0
            m[i, (i + 1) % n] = 1.0
        else:
            m[i, (i + 1) % n] = 1.0
            m[i, (i - 1) % n] = -1.0
    return (m / (h**2 if order == 2 else 2.0 * h)).tocsr()


def kron_implicit_matrix(a, grid):
    """Reference: I - dt a:D^2 as a sum of Kronecker products of 1-D stencils,
    Dirichlet along x1 and periodic along x'."""
    n1, n2, h1, h2 = grid.n_x1 - 2, grid.n_xp, grid.dx1, grid.dxp
    off1, one2 = np.ones(n1 - 1), np.ones(n2 - 1)
    main1 = np.full(n1, -2.0) / h1**2
    d2_x1 = sp.diags([off1 / h1**2, main1, off1 / h1**2], [-1, 0, 1], format="csr")
    d1_x1 = sp.diags([-off1 / (2.0 * h1), off1 / (2.0 * h1)], [-1, 1], format="csr")
    d1_xp = (sp.diags([[1.0], -one2, one2, [-1.0]], [1 - n2, -1, 1, n2 - 1]) / (2.0 * h2)).tocsr()
    eye1, eye2 = sp.identity(n1, format="csr"), sp.identity(n2, format="csr")
    op = a[0, 0] * sp.kron(d2_x1, eye2)
    op = op + a[1, 1] * sp.kron(eye1, lil_periodic(n2, h2, 2))
    if a[0, 1] != 0.0:
        op = op + 2.0 * a[0, 1] * sp.kron(d1_x1, d1_xp)
    return (sp.identity(n1 * n2, format="csr") - grid.dt * op).tocsc()


def assert_factored_as(monkeypatch, a, grid, ref):
    """_implicit_matrix hands SuperLU the CSC arrays of ref, bit for bit."""
    seen = []
    monkeypatch.setattr(solver, "splu", lambda m: seen.append(m) or splu(m))
    lu = solver._implicit_matrix(a, grid)
    (m,) = seen
    assert m.format == "csc" and m.shape == ref.shape
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(m, part), getattr(ref, part)), part
    rhs = np.random.default_rng(ref.shape[0]).normal(size=(ref.shape[0], 3))
    assert np.array_equal(lu.solve(rhs), splu(ref).solve(rhs))


@pytest.mark.parametrize("a12", [0.1, 0.0])
@pytest.mark.parametrize(
    "x1_cells, xp_cells, steps",
    # pipeline and compatibility, the three schauder_ratio levels, the
    # shortest x' lines and a one-row x1 line
    [(32, 8, 128), (128, 8, 512), (128, 8, 64), (12, 6, 32), (24, 12, 128), (48, 24, 512),
     (5, 4, 16), (6, 5, 16), (2, 4, 8)],
)
def test_implicit_matrix_matches_the_kronecker_sum(monkeypatch, a12, x1_cells, xp_cells, steps):
    grid = SpaceTimeGrid(dim=2, x1_max=2.0, x1_cells=x1_cells, t_max=0.05, steps=steps,
                         xp_max=1.0, xp_cells=xp_cells)
    a = np.array([[1.2, a12], [a12, 1.0]])
    assert_factored_as(monkeypatch, a, grid, kron_implicit_matrix(a, grid))


@pytest.mark.parametrize("n", range(3, 10))
def test_periodic_stencils_match_the_row_by_row_construction(monkeypatch, n):
    # the periodic line is one x1 row of x'-type nodes in the stencil assembly:
    # I - dt (a D^2) with the wrap-indexed D^2 filled row by row, bit for bit.
    # a = 1 (criterion 6's line) rounds alike in any order of dt a / h^2; 0.9
    # and 1.37 pin the order, which the assembly shares with the 2-D grids
    grid = SpaceTimeGrid(dim=1, x1_max=0.3, x1_cells=n, t_max=0.05, steps=16, periodic_x1=True)
    for a in (0.9, 1.37):
        ref = sp.identity(n, format="csr") - grid.dt * (a * lil_periodic(n, grid.dx1, 2))
        assert_factored_as(monkeypatch, np.array([[a]]), grid, ref.tocsc())


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
    for cols in (rhs.copy(), np.ascontiguousarray(rhs.T).T):
        got = line.solve(cols)
        assert got.shape == (n, columns)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("n", [1, 2, 40])
def test_a_dirichlet_line_solves_a_fortran_buffer_in_place(n):
    # the pipeline's line step: no copy in or out, the copying solve's bits
    line = _DirichletLine(n, 0.7)
    rhs = np.random.default_rng(n).normal(size=(n, 6)) * 1e3
    expected = line.solve(rhs.copy())
    buf = np.asfortranarray(rhs)
    assert line.solve(buf) is buf
    assert np.array_equal(buf.view(np.int64), expected.view(np.int64))


def test_a_finite_step_whose_sum_overflows_raises_no_blowup():
    # the one sum that screens the solve output reads inf, and the column
    # scan it sets off finds every value finite
    step, u, _, _, _ = stepper_case(1)
    with np.errstate(over="ignore"):  # the sum's overflow is the point
        out = stepped(step, np.full_like(u, 1e308), 1)
        assert np.isinf(np.sum(out)) and np.all(np.isfinite(out))


@pytest.mark.parametrize("n", [8, 17, 136])
def test_path_sum_adds_the_paths_left_to_right(n):
    # the continuity, compatibility and pipeline pins rest on this order;
    # numpy adds 8 or more values pairwise, which rounds otherwise here
    rng = np.random.default_rng(n)
    for shape in ((5, 3, n), (400, 3, n)):  # either side of the switch at 256 rows
        values = np.ldexp(rng.standard_normal(shape), rng.integers(-30, 31, shape))
        expected = values[..., 0].copy()
        for k in range(1, n):
            expected = expected + values[..., k]
        got = _ordered_path_sum(values)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        # the sum np.mean(axis=0) takes over the path-major array
        path_major = np.ascontiguousarray(np.moveaxis(values, -1, 0))
        assert np.array_equal(got.view(np.int64), np.add.reduce(path_major, axis=0).view(np.int64))
        assert not np.array_equal(got, np.add.reduce(values, axis=-1))


@pytest.mark.parametrize("cells", [2, 3])
def test_solvers_run_on_the_smallest_wall_grids(cells):
    # one or two interior unknowns, where a bare dgttrf call is refused
    g = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=cells, t_max=0.02, steps=4)
    gf = mode_field(g, lambda x: np.sin(np.pi * x))
    u = solve_model_halfspace(HEAT, Forcing(g=gf), g, noise_for(g, 2))
    assert np.all(np.isfinite(u.values))
    assert np.all(u.values[:, :, [0, -1]] == 0.0)
    assert np.any(u.values[:, 1:, 1:-1] != 0.0)
    # the pipeline's wall-profile step on the same line
    r = g.dt / g.dx1**2
    line = _DirichletLine(g.n_x1 - 2, r)
    w = np.zeros((line.n, 2), order="F")  # the interior rows, two paths
    for j in range(g.steps):
        wall = np.full(2, g.times[j + 1] ** 2)
        prev = w.copy()
        _line_step(line, r, w, wall)
        assert np.all(np.isfinite(w)) and np.all(w != prev)
        if cells == 2:
            # a single unknown: each backward-Euler step is one division
            assert np.array_equal(w[0], (prev[0] + r * wall) / (1.0 + 2.0 * r))


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


def _mode_steps(noise, dt, lam, rate, forced, start):
    """(A_j, B_j), j = 1..steps, of a Fourier mode A cos + B sin under the
    scheme: forced * cos drives A, the noise rotates (A, B) by rate * dW_j,
    both explicit at t_j, and the implicit solve divides by 1 + dt lam."""
    a, b = start, np.zeros_like(start)
    for j in range(noise.n_steps):
        dw = rate * noise.increments[:, j, 0].reshape(start.shape)
        a, b = (a + forced * dt + dw * b) / (1 + dt * lam), (b - dw * a) / (1 + dt * lam)
        yield a, b


def _wall_mode(g, k, m, a11=1.2, a22=1.0):
    """S cos and S sin on the unknown nodes, S = sin(k pi x1 / L) and the
    angle 2 pi m x' / P (cos = S, sin = 0 in dim 1), with the scheme's
    lambda and the factor mu of the centred periodic first difference."""
    L, h1 = g.x1_max, g.dx1
    s = np.sin(k * np.pi * g.x1_nodes[1:-1] / L)
    lam = a11 * (4 / h1**2) * np.sin(k * np.pi * h1 / (2 * L)) ** 2
    if g.dim == 1:
        return s, np.zeros_like(s), lam, 0.0
    P, h2 = g.xp_max, g.dxp
    theta = 2 * np.pi * m * g.xp_nodes / P
    lam += a22 * (4 / h2**2) * np.sin(np.pi * m * h2 / P) ** 2
    mu = np.sin(2 * np.pi * m * h2 / P) / h2
    return s[:, None] * np.cos(theta), s[:, None] * np.sin(theta), lam, mu


def _wall_grid(dim):
    xp = {"xp_max": 1.0, "xp_cells": 8} if dim == 2 else {}
    return SpaceTimeGrid(dim=dim, x1_max=2.0, x1_cells=16, t_max=0.0625, steps=64, **xp)


@pytest.mark.parametrize(
    "dim, k, m", [(2, 1, 1), (2, 3, 1), (2, 2, 3), (1, 1, 0), (1, 5, 0)],
    ids=["1-1", "3-1", "2-3", "dim1-1", "dim1-5"],
)
def test_a_wall_mode_follows_its_pathwise_recursion(dim, k, m):
    # with a12 = 0 the mode S(x1) (A cos + B sin)(x'), S = sin(k pi x1 / L), is
    # closed under the scheme: S is an eigenvector of the Dirichlet second
    # difference, cos and sin of the periodic one, and the centred periodic
    # first difference maps (cos, sin) to mu (-sin, cos).  f = S cos drives A,
    # the tangential noise sigma D2 u dw rotates (A, B), both explicit at t_j.
    # In dim 1 there is no x' and sigma = 0: the mode is A S.
    g, sig = _wall_grid(dim), 0.6 if dim == 2 else 0.0
    a, sigma = np.diag([1.2, 1.0][:dim]), [[0.0], [sig]][:dim]
    co = ModelCoefficients.make(dim, a, sigma, kappa=0.5, bound=4.0)
    noise = noise_for(g, paths=6)
    cos, sin, lam, mu = _wall_mode(g, k, m)
    f = np.zeros((1, g.steps + 1) + g.space_shape)
    f[:, :, 1:-1] = cos
    u = solve_model_halfspace(co, Forcing(f=FieldEnsemble(f, g)), g, noise).values
    assert not u[:, :, [0, -1]].any()
    start = np.zeros((noise.n_paths,) + (1,) * dim)
    for j, (a, b) in enumerate(_mode_steps(noise, g.dt, lam, sig * mu, 1.0, start)):
        mode = a * cos + b * sin
        # rounding accumulated over j steps: within 128 ulps of the step's largest value
        assert np.max(np.abs(u[:, j + 1, 1:-1] - mode)) <= 128 * np.spacing(np.max(np.abs(mode)))


@pytest.mark.parametrize("k, m", [(1, 1), (2, 3)])
def test_a_stacked_wall_mode_follows_its_pathwise_recursion(k, m):
    # compatibility's layout: two states share a, f and the noise, and two
    # _steps runs step them in lockstep; each has its own tangential sigma, so
    # each follows the recursion at its own rate (within 128 ulps of each
    # step's largest value; 34 at most, as one state alone)
    g, sigmas = _wall_grid(2), (0.6, 0.3)
    noise = noise_for(g, paths=6)
    cos, sin, lam, mu = _wall_mode(g, k, m)
    f = np.zeros((1, g.steps + 1) + g.space_shape)
    f[:, :, 1:-1] = cos
    u = [np.zeros(g.space_shape + (noise.n_paths,)) for _ in sigmas]
    runs = []
    for v, sig in zip(u, sigmas):
        co = ModelCoefficients.make(2, np.diag([1.2, 1.0]), [[0.0], [sig]], kappa=0.5, bound=4.0)
        runs.append(_steps(co, Forcing(f=FieldEnsemble(f, g)), g, noise, v))
    modes = [_mode_steps(noise, g.dt, lam, sig * mu, 1.0, np.zeros((6, 1, 1))) for sig in sigmas]
    for j in zip(*runs):
        for v, (a, b) in zip(u, (next(steps) for steps in modes)):
            mode = a * cos + b * sin
            got = np.moveaxis(v[1:-1], -1, 0)
            assert np.max(np.abs(got - mode)) <= 128 * np.spacing(np.max(np.abs(mode)))
    assert j == (g.steps - 1,) * 2  # both ran every step


@pytest.mark.parametrize("m", [1, 3])
def test_a_periodic_mode_follows_its_pathwise_recursion(m):
    # on the periodic line cos and sin(2 pi m x / P) are eigenvectors of D^2
    # and the centred D1 maps (cos, sin) to mu (-sin, cos), so sigma D1 u dw
    # rotates (A, B); u0 = cos starts the mode at (1, 0).  The line returns
    # its last state only, so it is stepped one noise increment at a time.
    # Rounding left in the constant mode does not decay as this mode does;
    # 32 steps keep it within 128 ulps of each step's largest value (52 at most)
    P, n, dt = 1.0, 16, 2.0**-12
    co = ModelCoefficients.make(1, [[1.0]], [[0.6]], kappa=1.0, bound=4.0)
    g = SpaceTimeGrid(dim=1, x1_max=P, x1_cells=n, t_max=32 * dt, steps=32, periodic_x1=True)
    one = SpaceTimeGrid(dim=1, x1_max=P, x1_cells=n, t_max=dt, steps=1, periodic_x1=True)
    noise = noise_for(g, paths=6)
    h, theta = g.dx1, 2 * np.pi * m * g.x1_nodes / P
    lam = (4 / h**2) * np.sin(np.pi * m * h / P) ** 2
    mu = np.sin(2 * np.pi * m * h / P) / h
    u0 = u = np.broadcast_to(np.cos(theta), (noise.n_paths, n)).copy()
    for j, (a, b) in enumerate(_mode_steps(noise, dt, lam, 0.6 * mu, 0.0, np.ones((6, 1)))):
        dw = WienerBatch(noise.increments[:, j : j + 1], dt)
        u = solve_periodic_line(co, Forcing(), one, dw, u0=u)
        mode = a * np.cos(theta) + b * np.sin(theta)
        assert np.max(np.abs(u - mode)) <= 128 * np.spacing(np.max(np.abs(mode)))
    # one step at a time is the whole run's arithmetic
    assert np.array_equal(u, solve_periodic_line(co, Forcing(), g, noise, u0=u0))


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
            solve_model_halfspace(HEAT, Forcing(g=gf), g, noise).values
        )
    e01 = np.sqrt(np.mean((sols[0] - sols[1][:, ::4, ::2]) ** 2))
    e12 = np.sqrt(np.mean((sols[1] - sols[2][:, ::4, ::2]) ** 2))
    assert e01 / e12 >= 2.0


# -- continuity map ---------------------------------------------------


def full_history_continuation(co, s, s0, forcing, g, noise, n_iter):
    """Reference: one full-horizon s0 solve per iterate, fed the previous
    iterate's whole history through finite_diff (1-D, one noise mode)."""
    ds = s - s0
    frozen = interpolate_coefficients(co, s0)
    a_dev = co.a - np.eye(1)
    v = FieldEnsemble(np.zeros((noise.n_paths, g.steps + 1, g.n_x1)), g)
    diffs = []
    for m in range(1, n_iter + 1):
        f_extra = np.zeros_like(v.values)
        f_extra += a_dev[0, 0] * finite_diff(v, (2,)).values
        g_extra = np.stack([co.sigma[0, 0] * finite_diff(v, (1,)).values], axis=-1)
        f_eff = FieldEnsemble(forcing.f.values + ds * f_extra, g)
        g_vals = ds * g_extra
        if forcing.g is not None:
            g_vals = forcing.g.values + g_vals
        g_eff = FieldEnsemble(np.ascontiguousarray(g_vals), g, n_modes=1)
        v_next = solve_model_halfspace(frozen, Forcing(f=f_eff, g=g_eff), g, noise)
        if m >= 2:
            gap = v_next.values - v.values
            diffs.append(float(np.max(np.mean(gap * gap, axis=0))))
        v = v_next
    return diffs, v.values[:, -1]


def sine_forcing(g, paths=1):
    profile = np.sin(np.pi * g.x1_nodes / g.x1_max)
    values = np.broadcast_to(profile, (paths, g.steps + 1, g.n_x1)).copy()
    return Forcing(f=FieldEnsemble(values, g))


@pytest.mark.parametrize(
    "grid, a, s, s0, paths, n_iter, f_paths, with_g",
    [
        (dict(cells=8, steps=16, t_max=0.016), 1.7, 1.0, 0.9, 3, 4, 1, False),
        (dict(cells=6, steps=40, t_max=0.02, x1_max=0.8), 1.9, 0.7, 0.4, 5, 5, 5, True),
        # a zero frozen sigma row: the step forms no gradient, ds sigma Dv stays live
        (dict(cells=8, steps=16, t_max=0.016), 1.6, 0.6, 0.0, 4, 4, 1, True),
        # 17 paths: numpy would sum a trailing axis of 8 or more pairwise, not
        # in the path order of the reference's leading-axis mean
        (dict(cells=8, steps=16, t_max=0.016), 1.7, 1.0, 0.8, 17, 4, 17, True),
    ],
)
def test_continuity_iterates_match_the_full_history_iteration(
    grid, a, s, s0, paths, n_iter, f_paths, with_g
):
    g = wallgrid(**grid)
    co = ModelCoefficients.make(1, np.array([[a]]), np.array([[0.5]]), kappa=0.5)
    noise = noise_for(g, paths=paths)
    forcing = sine_forcing(g, f_paths)
    if f_paths > 1:
        forcing.f.values[:] *= np.random.default_rng(3).normal(size=(f_paths, g.steps + 1, 1))
    if with_g:
        forcing.g = mode_field(g, lambda x: np.cos(3.0 * x))
    diffs, states = continuity_iterates(co, s, s0, forcing, g, noise, n_iter)
    ref_diffs, ref_last = full_history_continuation(co, s, s0, forcing, g, noise, n_iter)
    assert states.shape == (n_iter, paths, g.n_x1)
    assert all(d > 0.0 for d in ref_diffs)
    assert list(diffs) == ref_diffs
    assert np.array_equal(states[-1], ref_last)


def test_continuity_iterates_at_the_base_point():
    # at s = s0 the operator increment vanishes, so every iterate is the
    # base solve and every successive difference is exactly zero
    g = wallgrid()
    co = ModelCoefficients.make(1, np.array([[1.5]]), np.array([[0.5]]), kappa=0.5)
    diffs, states = continuity_iterates(co, 0.5, 0.5, sine_forcing(g), g, noise_for(g, 2), 4)
    assert diffs.shape == (3,) and np.all(diffs == 0.0)
    assert np.any(states[0] != 0.0)


def test_continuity_iterates_first_is_base_solve():
    g = wallgrid()
    co = ModelCoefficients.make(1, np.array([[1.5]]), np.array([[0.5]]), kappa=0.5)
    noise = noise_for(g, paths=2)
    forcing = sine_forcing(g)
    _, states = continuity_iterates(co, 0.75, 0.3, forcing, g, noise, 3)
    base = solve_model_halfspace(interpolate_coefficients(co, 0.3), forcing, g, noise)
    assert np.array_equal(states[0], base.values[:, -1])


def test_one_gradient_of_the_iterates_per_step(monkeypatch):
    # D v of every iterate is formed once and read by both noise terms
    g = wallgrid()
    co = ModelCoefficients.make(1, np.array([[1.5]]), np.array([[0.5]]), kappa=0.5)
    orders = []

    def counting(values, h, axis, order):
        orders.append(order)
        return _centred(values, h, axis, order)

    monkeypatch.setattr(solver, "_centred", counting)
    continuity_iterates(co, 0.75, 0.3, sine_forcing(g), g, noise_for(g, 2), 3)
    assert orders.count(1) == g.steps


def test_continuity_iterates_report_a_blowup_path_and_step():
    g = wallgrid()
    co = ModelCoefficients.make(1, np.array([[1.5]]), np.array([[0.5]]), kappa=0.5)
    forcing = sine_forcing(g, paths=3)
    j = 5
    forcing.f.values[2, j, 3] = np.inf
    with pytest.raises(BlowUpError) as err:
        continuity_iterates(co, 1.0, 0.9, forcing, g, noise_for(g, 3), 3)
    assert (err.value.path, err.value.step) == (2, j + 1)


def test_continuity_iterates_need_a_one_dimensional_wall_grid():
    co = ModelCoefficients.make(1, np.array([[1.5]]), np.array([[0.5]]), kappa=0.5)
    per = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=8, t_max=0.002, steps=2, periodic_x1=True)
    with pytest.raises(ModelError, match="1-D Dirichlet"):
        continuity_iterates(co, 1.0, 0.9, Forcing(), per, noise_for(per), 2)
    # the frozen operator L_s0 goes through the shared precondition block
    g = wallgrid(steps=2, t_max=0.002)
    wrong_dt = wiener_increments(SEED, 2, g.steps, dt=2.0 * g.dt)
    with pytest.raises(ModelError, match="variance"):
        continuity_iterates(co, 1.0, 0.9, Forcing(), g, wrong_dt, 2)
