"""Boundary-layer decomposition of the half-space solution.

Splits a solved field u into parts with known wall behaviour:

    u = U + V0 + V1 + w,

where U absorbs the gradient noise through an additive heat solve,
V0 and V1 are one-dimensional normal profiles driven by the wall trace
of the translated forcing, and the remainder w feels a forcing F whose
wall trace vanishes in the continuum.  The discrete wall residual of F
is the quality metric: it must shrink under grid refinement.

Construction of the profiles.  With f_tilde the forcing felt by
u_tilde = u - U after freezing every second-order term except the
normal one, set

    b = f_tilde(. , wall) / a11,   c = b(0),   H(t) = int_0^t (b - c),

then V0 = H + W0 and V1 = t c + W1, where W0, W1 solve the half-line
heat equation with wall data -H and -t c and vanish far away.  Both
wall data vanish at t = 0, and H has zero initial slope, so the kernel
representation applies to W0 and is used as an optional cross-check of
the finite-difference profile.

One pass over time.  Every quantity kept is a function of time slices
j and j + 1 alone, so one loop reads slice j of u and U, steps H, W0
and W1 to it, and then steps u and U to slice j + 1 with the solver's
`_Stepper`; no field history is stored.  U's heat forcing sigma^{2k}
D2 u is u's own noise integrand, so the loop forms the noise terms
sigma^{2k} D2 u dw^k once per step and hands them to both steps, u's
for the operator a and U's for the Laplacian.  The wall rows of f_tilde
and D11 v are the one-sided x1 = 0 closures of the difference stencils,
applied to x1 rows 0-3 directly.  W0 is stepped on the noise paths and
W1 on the forcing's paths alone: c = b(0) reads u = U = 0, so it has
f's paths.  Their interior x1 rows share one Fortran-ordered buffer,
which the one line solve per step overwrites in place, and V = W + offset
is formed on those rows alone: V is +0.0 on the wall, and the
reconstruction residual is exactly zero on both end rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldEnsemble, SpaceTimeGrid, _closure, _diff, _ordered_path_sum
from .halfline import BoundaryData, solve_halfline
from .solver import (
    Forcing,
    ModelCoefficients,
    ModelError,
    _check_inputs,
    _DirichletLine,
    _integrand,
    _Stepper,
    check_compatibility,
)

__all__ = ["PipelineOutput", "decompose_pipeline"]

# Fraction of the horizon excluded from the headline wall-residual metric.
# Under dt ~ dx^2 refinement the starting corner is self-similar: the
# discrete residual at a fixed node index is level-invariant there (and the
# t=0 slice equals (a11-1)*b(0) outright), so only nodes past a fixed
# physical time probe the cancellation.  The full profile is still reported.
SPINUP_FRACTION = 0.125


@dataclass
class PipelineOutput:
    """Wall data, the residual profile and scalar diagnostics.

    b, c and cap_h are (paths, steps+1[, n_xp]) wall histories: b at
    slice j reads slice j of u and U, H at slice j adds the trapezoid of
    slices j - 1 and j.  residual_profile[j] is max_x' E|F(t_j,0,x')|^2
    from slice j of F.  reconstruction_error and noise_part_max are
    maxima over every slice of |u - (U + V0 + V1 + w)| and |U|.
    """

    wall_residual: float  # max of the profile over t >= SPINUP_FRACTION * T
    wall_residual_full: float  # max over every time node, corner included
    residual_profile: np.ndarray  # max_x' E|F(t,0,x')|^2 per time node
    reconstruction_error: float
    h_slope_defect: float
    kernel_gap: float | None
    b: np.ndarray
    c: np.ndarray
    cap_h: np.ndarray
    noise_part_max: float


def _line_step(line, r, w, wall):
    """One backward-Euler step of the unit heat equation in x1, in place.

    w: the interior x1 rows (n_x1 - 2, k) at step j, Fortran-ordered, which
    the solve overwrites; wall: the Dirichlet data at x1 = 0 for step j + 1,
    shape (k,).  The far end stays clamped to zero, which is valid when the
    grid satisfies the truncation-error rule.
    """
    w[0] += r * wall
    line.solve(w)


def _wall_diff(v, n1, n2, grid):
    """Wall row of D1^n1 D2^n2 v (x1 rows first), n1 >= 1, the x1 = 0 closure alone."""
    out = _closure(v, n1, grid.dx1)
    return _diff(out, grid.dxp, 0, True, n2) if n2 else out


def _kernel_check(cap_h, b, c, refs, grid, probes):
    """Largest gap between a few W0 columns and the exact kernel solve of
    the spline through their -H samples."""
    line = SpaceTimeGrid(
        dim=1, x1_max=grid.x1_max, x1_cells=grid.x1_cells, t_max=grid.t_max, steps=grid.steps
    )
    worst = 0.0
    for (path, col), ref in zip(probes, refs):
        tail = (col,) if grid.dim == 2 else ()
        h = -cap_h[(path, slice(None)) + tail]
        hp = -(b[(path, slice(None)) + tail] - c[(path,) + tail])
        ref[:, 0] = h  # W0 on the wall
        data = BoundaryData.from_samples(h[None, :], hp[None, :], grid.times)
        kern = solve_halfline(data, line)
        worst = max(worst, float(np.max(np.abs(kern.values[0] - ref))))
    return worst


def decompose_pipeline(
    coeffs: ModelCoefficients,
    f: FieldEnsemble,
    grid: SpaceTimeGrid,
    noise,
    *,
    kernel_check: bool = False,
):
    """Solve the model problem and split the solution by wall behaviour.

    Requires vanishing normal noise (the flat-compatibility condition)
    and a Dirichlet wall; the drift forcing f may have a nonzero wall
    trace, which is exactly what activates the V profiles.  The
    noise-forcing slot stays empty here: gradient noise enters through
    the coefficients alone.  The loop stores u, U, the wall histories and
    W0 beside W1 ((n_x1 - 2[, n_xp], paths + f paths), Fortran-ordered)
    space first and paths last, as the stepper does, and moves paths to
    the front once, for the output.
    """
    comp = check_compatibility(coeffs)
    if not comp.passed:
        raise ModelError(
            f"normal noise component {comp.max_normal_component:.3e} "
            "breaks the wall decomposition"
        )
    if grid.periodic_x1:
        raise ModelError("the wall decomposition needs a grid with a wall at x1 = 0")
    paths, fp, dt, a11, sig = noise.n_paths, f.n_paths, grid.dt, coeffs.a[0, 0], coeffs.sigma
    _check_inputs(coeffs, Forcing(f=f), grid, noise)
    step = _Stepper(coeffs.a, grid)
    # U's noise is additive, so the heat step has no noise bound of its own
    heat = _Stepper(np.eye(grid.dim), grid) if np.any(sig) else None
    r = dt / grid.dx1**2
    line = _DirichletLine(grid.n_x1 - 2, r)
    times = grid.times
    wall_shape = (grid.steps + 1,) + grid.space_shape[1:] + (paths,)
    b, cap_h, wall_f = np.empty(wall_shape), np.zeros(wall_shape), np.empty(wall_shape)
    probes = []
    if kernel_check:
        probes = [(0, 0)]
        if grid.dim == 2:
            probes.append((paths - 1, grid.n_xp // 2))
    refs = [np.zeros((grid.steps + 1, grid.n_x1)) for _ in probes]
    state = grid.space_shape + (paths,)
    u, big = np.zeros(state), np.zeros(state)  # stepped in place on the unknown rows
    w = np.zeros((line.n,) + state[1:-1] + (paths + fp,), order="F")  # W's interior rows
    w0, w1, cols = w[..., :paths], w[..., paths:], w.reshape(line.n, -1, order="F")  # views
    recon_err, big_max, b_c = 0.0, 0.0, None
    f_vals = np.moveaxis(f.values, 0, -1)  # (steps+1, *space, f paths)
    for j in range(grid.steps + 1):
        tilde = u - big
        # translated forcing: freeze every second-order term except a11 D11;
        # the D22 terms would read only x1 = 0 rows, pinned at 0 by the wall
        ft = f_vals[j, 0] + (a11 - 1.0) * _wall_diff(big, 2, 0, grid)
        if grid.dim == 2:
            a12 = coeffs.a[0, 1]
            ft += 2.0 * (a12 * _wall_diff(big, 1, 1, grid))
            ft += 2.0 * (a12 * _wall_diff(tilde, 1, 1, grid))
        b[j] = ft / a11
        if j == 0:  # u = U = 0 here, so c has f's paths alone
            c, c_f = b[0].copy(), b[0, ..., :fp]
        b_c, prev = b[j] - c, b_c
        tc = times[j] * c_f
        if j:
            # the running sum of scipy's cumulative_trapezoid, bit for bit
            cap_h[j] = cap_h[j - 1] + dt * (b_c + prev) / 2.0
            _line_step(line, r, cols, -np.concatenate((cap_h[j], tc), -1).ravel("F"))
        # V0 = H + W0 and V1 = t c + W1, on the interior rows
        v0, v1 = w0 + cap_h[j], w1 + tc
        v = v0 + v1
        remainder = tilde[1:-1] - v
        recon = u[1:-1] - (big[1:-1] + v0 + v1 + remainder)
        recon_err = max(recon_err, float(np.max(np.abs(recon))))
        big_max = max(big_max, float(np.max(np.abs(big))))
        # residual forcing felt by the remainder; its wall trace is the metric.
        # V's x1 rows 0-3: +0.0 on the wall, and H + t c where W is 0 at the far end
        near = (0.0, *v[:3]) if line.n > 2 else (0.0, *v, (0.0 + cap_h[j]) + (0.0 + tc))
        wall_f[j] = (a11 - 1.0) * _wall_diff(near, 2, 0, grid) + ft - b[j]
        for ref, (path, col) in zip(refs, probes):
            ref[j, 1:-1] = w0[:, col, path] if grid.dim == 2 else w0[:, path]
        if j == grid.steps:
            break
        g = _integrand(sig, u, grid, noise.increments[:, j])
        if heat is not None:
            heat(big, j, None, g)
        step(u, j, f_vals[j, 1:-1], g)

    b, c, cap_h = (np.moveaxis(x, -1, 0) for x in (b, c, cap_h))  # paths first again
    # the slope of H at zero is b(0) - c, which is zero by construction
    h_slope_defect = float(np.max(np.abs(b[:, 0, ...] - c)))
    moment = _ordered_path_sum(wall_f * wall_f) / paths  # E|F|^2, shape (nt[, n_xp])
    residual_profile = np.max(moment, axis=tuple(range(1, moment.ndim)))
    window = times >= SPINUP_FRACTION * grid.t_max - 1e-15
    return PipelineOutput(
        wall_residual=float(np.max(residual_profile[window])),
        wall_residual_full=float(np.max(residual_profile)),
        residual_profile=residual_profile,
        reconstruction_error=recon_err,
        h_slope_defect=h_slope_defect,
        kernel_gap=_kernel_check(cap_h, b, c, refs, grid, probes) if kernel_check else None,
        b=b,
        c=c,
        cap_h=cap_h,
        noise_part_max=big_max,
    )
