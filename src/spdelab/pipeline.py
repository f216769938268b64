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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .fields import FieldEnsemble, SpaceTimeGrid, finite_diff, restrict_to_boundary
from .halfline import BoundaryData, solve_halfline
from .solver import (
    Forcing,
    ModelCoefficients,
    ModelError,
    _DirichletLine,
    check_compatibility,
    laplace_coefficients,
    solve_model_halfspace,
)

__all__ = ["PipelineOutput", "decompose_pipeline", "halfline_heat_dirichlet"]

# Fraction of the horizon excluded from the headline wall-residual metric.
# Under dt ~ dx^2 refinement the starting corner is self-similar: the
# discrete residual at a fixed node index is level-invariant there (and the
# t=0 slice equals (a11-1)*b(0) outright), so only nodes past a fixed
# physical time probe the cancellation.  The full profile is still reported.
SPINUP_FRACTION = 0.125


@dataclass
class PipelineOutput:
    """Decomposition pieces and their diagnostics.

    Under keep="light" the bulk fields are dropped (None) and only the
    wall data, profiles of the residual and scalar diagnostics survive;
    the refinement study runs in that mode to keep memory flat.
    """

    grid: SpaceTimeGrid
    wall_residual: float  # max of the profile over t >= SPINUP_FRACTION * T
    wall_residual_full: float  # max over every time node, corner included
    residual_profile: np.ndarray  # max_x' E|F(t,0,x')|^2 per time node
    reconstruction_error: float
    h_slope_defect: float
    kernel_gap: float | None
    b: np.ndarray
    c: np.ndarray
    cap_h: np.ndarray
    u: FieldEnsemble | None = None
    noise_part: FieldEnsemble | None = None
    u_tilde: FieldEnsemble | None = None
    v0: FieldEnsemble | None = None
    v1: FieldEnsemble | None = None
    remainder: FieldEnsemble | None = None
    forcing_tilde: FieldEnsemble | None = None
    residual_forcing: FieldEnsemble | None = None


def halfline_heat_dirichlet(wall_values: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Backward-Euler heat solve in the normal variable only.

    wall_values: (paths, steps+1[, n_xp]) Dirichlet data at x1 = 0 with
    zero initial slice; the far end is clamped to zero, which is valid
    when the grid satisfies the truncation-error rule.  Returns the
    full history (paths, steps+1, n_x1[, n_xp]).  Unit diffusion: the
    profile equations are posed for the plain heat operator and the
    coefficient mismatch is charged to the remainder forcing.
    """
    if np.max(np.abs(wall_values[:, 0, ...])) != 0.0:
        raise ModelError("wall data must vanish at t = 0")
    paths = wall_values.shape[0]
    n_i = grid.n_x1 - 2
    r = grid.dt / grid.dx1**2
    line = _DirichletLine(n_i, r)
    tail = wall_values.shape[2:]  # () in dim 1, (n_xp,) in dim 2
    out = np.zeros((paths, grid.steps + 1, grid.n_x1) + tail)
    for j in range(grid.steps):
        # slice j is read, slice j + 1 written; the far end stays 0
        rhs = np.moveaxis(out[:, j, 1:-1, ...], 1, 0).copy()
        rhs[0] += r * wall_values[:, j + 1, ...]
        sol = line.solve(rhs.reshape(n_i, -1))
        out[:, j + 1, 1:-1, ...] = np.moveaxis(sol.reshape((n_i, paths) + tail), 0, 1)
        out[:, j + 1, 0, ...] = wall_values[:, j + 1, ...]
    return out


def _kernel_check(cap_h, b, c, w0, grid, probes):
    """Largest gap between a few W0 columns and the exact kernel solve of
    the spline through their -H samples."""
    line = SpaceTimeGrid(
        dim=1, x1_max=grid.x1_max, x1_cells=grid.x1_cells, t_max=grid.t_max, steps=grid.steps
    )
    worst = 0.0
    for path, col in probes:
        if grid.dim == 2:
            h = -cap_h[path, :, col]
            hp = -(b[path, :, col] - c[path, col])
            ref = w0[path, :, :, col]
        else:
            h = -cap_h[path]
            hp = -(b[path] - c[path])
            ref = w0[path]
        data = BoundaryData.from_samples(
            h[None, :], hp[None, :], grid.times, label="pipeline-wall"
        )
        kern = solve_halfline(data, line)
        worst = max(worst, float(np.max(np.abs(kern.values[0] - ref))))
    return worst


def decompose_pipeline(
    coeffs: ModelCoefficients,
    f: FieldEnsemble,
    grid: SpaceTimeGrid,
    noise,
    *,
    keep: str = "all",
    kernel_check: bool = False,
    observer=None,
):
    """Solve the model problem and split the solution by wall behaviour.

    Requires vanishing normal noise (the flat-compatibility condition);
    the drift forcing f may have a nonzero wall trace, which is exactly
    what activates the V profiles.  The noise-forcing slot stays empty
    here: gradient noise enters through the coefficients alone.
    """
    if keep not in ("all", "light"):
        raise ValueError(f"unknown keep mode {keep!r}")
    comp = check_compatibility(coeffs)
    if not comp.passed:
        raise ModelError(
            f"normal noise component {comp.max_normal_component:.3e} "
            "breaks the wall decomposition"
        )

    u = solve_model_halfspace(coeffs, Forcing(f=f), grid, noise, observer=observer)
    times = grid.times

    # noise part: additive heat solve forced by sigma . grad u, same paths
    sig = coeffs.sigma
    if grid.dim == 2 and np.any(sig):
        du_t = finite_diff(u, (0, 1)).values
        parts = [sig[1, k] * du_t for k in range(coeffs.n_modes)]
        g_tilde = FieldEnsemble(
            np.ascontiguousarray(np.stack(parts, axis=-1)),
            grid,
            n_modes=coeffs.n_modes,
        )
        del du_t, parts
        heat = laplace_coefficients(grid.dim, n_modes=coeffs.n_modes)
        big_u = solve_model_halfspace(heat, Forcing(g=g_tilde), grid, noise)
        del g_tilde
    else:
        big_u = FieldEnsemble(np.zeros_like(u.values), grid)

    u_tilde = FieldEnsemble(u.values - big_u.values, grid)

    # translated forcing: freeze every second-order term except a11 D11
    a11 = coeffs.a[0, 0]
    f_vals = np.broadcast_to(
        f.values, (u.values.shape[0],) + f.values.shape[1:]
    ).copy()
    if grid.dim == 1:
        f_vals += (a11 - 1.0) * finite_diff(big_u, (2,)).values
    else:
        a22 = coeffs.a[1, 1]
        a12 = coeffs.a[0, 1]
        f_vals += (a11 - 1.0) * finite_diff(big_u, (2, 0)).values
        f_vals += (a22 - 1.0) * finite_diff(big_u, (0, 2)).values
        f_vals += 2.0 * (a12 * finite_diff(big_u, (1, 1)).values)
        f_vals += a22 * finite_diff(u_tilde, (0, 2)).values
        f_vals += 2.0 * (a12 * finite_diff(u_tilde, (1, 1)).values)
    f_tilde = FieldEnsemble(f_vals, grid)

    b = restrict_to_boundary(f_tilde) / a11
    c = b[:, 0, ...].copy()
    cap_h = cumulative_trapezoid(
        b - c[:, None, ...], dx=grid.dt, axis=1, initial=0.0
    )
    # the slope of H at zero is b(0) - c, which is zero by construction
    h_slope_defect = float(np.max(np.abs(b[:, 0, ...] - c)))

    w0 = halfline_heat_dirichlet(-cap_h, grid)
    ramp = times.reshape((1, -1) + (1,) * (grid.dim - 1)) * c[:, None, ...]
    w1 = halfline_heat_dirichlet(-ramp, grid)

    if grid.dim == 2:
        v0_vals = w0 + cap_h[:, :, None, :]
        v1_vals = w1 + ramp[:, :, None, :]
    else:
        v0_vals = w0 + cap_h[:, :, None]
        v1_vals = w1 + ramp[:, :, None]
    if not kernel_check:
        del w0
    del w1
    v0 = FieldEnsemble(v0_vals, grid)
    v1 = FieldEnsemble(v1_vals, grid)
    v_vals = v0_vals + v1_vals

    remainder = FieldEnsemble(u_tilde.values - v_vals, grid)
    recon = u.values - (big_u.values + v0_vals + v1_vals + remainder.values)
    reconstruction_error = float(np.max(np.abs(recon)))
    del recon
    n_paths = int(u.values.shape[0])
    if keep == "light":
        # the refinement study only consumes wall diagnostics; drop the
        # bulk history before assembling the residual forcing
        del u, big_u, u_tilde, remainder
        v0 = v1 = None

    # residual forcing felt by the remainder; its wall trace is the metric
    beta2 = (2,) if grid.dim == 1 else (2, 0)
    d11_v = finite_diff(FieldEnsemble(v_vals, grid), beta2).values
    res_vals = (a11 - 1.0) * d11_v + f_tilde.values - b[:, :, None, ...]
    del d11_v, v_vals
    residual_forcing = FieldEnsemble(res_vals, grid)
    if keep == "light":
        f_tilde = None
    wall_f = restrict_to_boundary(residual_forcing)
    moment = np.mean(wall_f * wall_f, axis=0)  # E|F|^2, shape (nt[, n_xp])
    residual_profile = np.max(moment, axis=tuple(range(1, moment.ndim)))
    wall_residual_full = float(np.max(residual_profile))
    window = grid.times >= SPINUP_FRACTION * grid.t_max - 1e-15
    wall_residual = float(np.max(residual_profile[window]))

    kernel_gap = None
    if kernel_check:
        probes = [(0, 0)]
        if grid.dim == 2 and grid.n_xp > 1:
            probes.append((n_paths - 1, grid.n_xp // 2))
        kernel_gap = _kernel_check(cap_h, b, c, w0, grid, probes)

    out = PipelineOutput(
        grid=grid,
        wall_residual=wall_residual,
        wall_residual_full=wall_residual_full,
        residual_profile=residual_profile,
        reconstruction_error=reconstruction_error,
        h_slope_defect=h_slope_defect,
        kernel_gap=kernel_gap,
        b=b,
        c=c,
        cap_h=cap_h,
    )
    if keep == "all":
        out.u = u
        out.noise_part = big_u
        out.u_tilde = u_tilde
        out.v0 = v0
        out.v1 = v1
        out.remainder = remainder
        out.forcing_tilde = f_tilde
        out.residual_forcing = residual_forcing
    return out
