"""Semi-implicit ensemble solver for the half-space model problem.

The model equation couples an implicit diffusion drift with explicit
gradient noise:

    du = (a^{ij} D_ij u + f) dt + (sigma^{ik} D_i u + g^k) dw^k,
    u = 0 on the wall x1 = 0 (and at the truncation plane x1 = x1_max),
    u(0) = 0,

with constant coefficients a and sigma, stepped by backward-Euler
diffusion (the implicit matrix is factored once per solve) and explicit
Euler-Maruyama noise evaluated at the left time point.  All paths
advance together through identical linear algebra, in one thread.  The
step is written once, in `_Stepper`, for the unknown nodes of a stack of
states; it knows only the operator a, and its caller forms the noise
terms, with `_integrand` where they are the model's.  `_steps` is the
one time loop of a model state: the solves below and the compatibility
study's two variants run through it, while the continuation and the
wall decomposition step their own states.  SuperLU factors every
operator but the Dirichlet line's (dgttrf) and loads at its first factor.
Stepped states are stored space first and paths last, (*space, *stack,
paths), so x1 slices are contiguous blocks; the public fields keep their
path-major shapes, and the loops transpose at that boundary.

Coefficient admissibility is the two-sided parabolicity condition
kappa |xi|^2 + sigma sigma^T <= 2 a <= K |xi|^2; the boundary theory
additionally needs the normal noise row sigma^{1k} to vanish, which
`check_compatibility` tests and the dichotomy study deliberately breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .fields import FieldEnsemble, GridMismatch, SpaceTimeGrid, _centred, _diff, _ordered_path_sum
from .rng import WienerBatch

__all__ = [
    "ModelCoefficients",
    "Forcing",
    "ParabolicityReport",
    "CompatibilityReport",
    "ModelError",
    "BlowUpError",
    "check_parabolicity",
    "check_compatibility",
    "interpolate_coefficients",
    "solve_model_halfspace",
    "solve_periodic_line",
    "continuity_iterates",
]

DEFAULT_CFL = 0.25


class ModelError(ValueError):
    """Coefficients, grid or noise violate a solver precondition."""


class BlowUpError(RuntimeError):
    """A trajectory left the finite range; names the first bad index."""

    def __init__(self, path, step):
        super().__init__(f"solution blew up at path {path}, step {step}")
        self.path = path
        self.step = step


@dataclass(frozen=True, eq=False)
class ModelCoefficients:
    """Constant model coefficients with admissibility bounds.

    a: (dim, dim) symmetric diffusion; sigma: (dim, n_modes) gradient
    noise, one column per mode.  The model problem has no lower-order
    terms.  kappa and bound are the recorded two-sided ellipticity constants.
    """

    dim: int
    n_modes: int
    a: np.ndarray
    sigma: np.ndarray
    kappa: float
    bound: float

    @classmethod
    def make(cls, dim, a, sigma, *, kappa=1.0, bound=4.0):
        a = np.array(a, dtype=float)
        sigma = np.array(sigma, dtype=float)
        n_modes = max(sigma.shape[1], 1) if sigma.ndim == 2 else 1
        for name, arr, shape in (("a", a, (dim, dim)), ("sigma", sigma, (dim, n_modes))):
            if arr.shape != shape:
                raise ModelError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ModelError(f"{name} must be finite, got {arr.tolist()}")
        if not np.allclose(a, a.T, rtol=0, atol=1e-14):
            raise ModelError("a must be symmetric")
        if not (0 < kappa < math.inf and 0 < bound < math.inf):  # NaN fails both
            raise ModelError("kappa and bound must be positive and finite")
        return cls(dim=dim, n_modes=n_modes, a=a, sigma=sigma, kappa=kappa, bound=bound)


@dataclass
class ParabolicityReport:
    passed: bool
    lower_margin: float
    upper_margin: float
    worst_time: float


@dataclass
class CompatibilityReport:
    passed: bool
    max_normal_component: float


def check_parabolicity(coeffs: ModelCoefficients, times=(0.0,)) -> ParabolicityReport:
    """Eigenvalue margins of kappa I + sigma sigma^T <= 2a <= K I.

    The coefficients are constant, so the margins hold at every time
    node alike and worst_time reports the first one.
    """
    a2 = 2.0 * coeffs.a
    s = coeffs.sigma
    lower = float(np.min(np.linalg.eigvalsh(a2 - s @ s.T - coeffs.kappa * np.eye(coeffs.dim))))
    upper = float(np.min(np.linalg.eigvalsh(coeffs.bound * np.eye(coeffs.dim) - a2)))
    return ParabolicityReport(
        passed=bool(lower >= -1e-12 and upper >= -1e-12),
        lower_margin=lower,
        upper_margin=upper,
        worst_time=float(times[0]),
    )


def check_compatibility(coeffs: ModelCoefficients) -> CompatibilityReport:
    """The boundary theory needs the normal noise row to vanish."""
    worst = float(np.max(np.abs(coeffs.sigma[0, :])))
    return CompatibilityReport(passed=worst == 0.0, max_normal_component=worst)


@dataclass
class Forcing:
    """Drift forcing f and noise forcing g (modes on the trailing axis)."""

    f: FieldEnsemble | None = None
    g: FieldEnsemble | None = None

    def validate(self, grid, n_modes, paths):
        """Each slice broadcasts over the noise paths: one path, or one per path."""
        for name, fe in (("f", self.f), ("g", self.g)):
            if fe is None:
                continue
            if fe.grid != grid:
                raise GridMismatch(f"forcing {name} lives on a different grid")
            if fe.n_paths not in (1, paths):
                raise ModelError(f"forcing {name} has {fe.n_paths} paths, noise has {paths}")
        if self.f is not None and self.f.n_modes:
            raise ModelError("f must not carry a mode axis")
        if self.g is not None and self.g.n_modes != n_modes:
            raise ModelError(
                f"g carries {self.g.n_modes} modes, coefficients have {n_modes}"
            )


# -- discrete operators ----------------------------------------------


class _DirichletLine:
    """I - r D^2 on n interior nodes of a Dirichlet line, factored once.

    dgttrf once, dgttrs per solve.  scipy's dgttrf wrapper rejects n < 3,
    so a short line is padded with decoupled identity rows: the coupling
    across the seam is zero, no pivot crosses it, and the real rows factor
    and solve exactly as they would unpadded.
    """

    def __init__(self, n, r):
        m = max(n, 3)
        off = np.zeros(m - 1)
        off[: n - 1] = -r
        diag = np.ones(m)
        diag[:n] = 1.0 + 2.0 * r
        self.n = n
        self.factors = dgttrf(off, diag, off)[:5]

    def solve(self, cols):
        """Solution for each column of cols, shape (n, k).  A Fortran-ordered
        cols is solved in place and returned; a padded line writes any cols back."""
        pad = self.factors[1].size - self.n
        if pad:
            cols[...] = dgttrs(*self.factors, np.pad(cols, ((0, pad), (0, 0))))[0][: self.n]
            return cols
        return dgttrs(*self.factors, cols, overwrite_b=1)[0]


def _implicit_matrix(a, grid):
    """I - dt * a:D^2 over the unknown nodes, factored for repeated solves."""
    dt = grid.dt
    if grid.dim == 1 and not grid.periodic_x1:
        return _DirichletLine(grid.n_x1 - 2, dt * a[0, 0] / grid.dx1**2)
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    # the 5- or 9-point stencil at each unknown node (i1, i2), x1 major, in the
    # arithmetic of the Kronecker sum of Dirichlet x1 and periodic x' stencils;
    # the matrix is symmetric, so a column lists its rows as a row its columns
    if grid.dim == 1:  # the periodic line: one x1 row of x'-type nodes, no x1 term
        n1, n2, h1, h2, a = 1, grid.n_x1, 1.0, grid.dx1, np.diag([0.0, a[0, 0]])
    else:
        n1, n2, h1, h2 = grid.n_x1 - 2, grid.n_xp, grid.dx1, grid.dxp
    side1, side2 = -(dt * (a[0, 0] * (1.0 / h1**2))), -(dt * (a[1, 1] * (1.0 / h2**2)))
    stencil = {(0, 0): 1.0 - dt * (a[0, 0] * (-2.0 / h1**2) + a[1, 1] * (-2.0 / h2**2)),
               (-1, 0): side1, (1, 0): side1, (0, -1): side2, (0, 1): side2}
    if a[0, 1] != 0.0:
        for s1, s2 in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
            stencil[s1, s2] = -(dt * (2.0 * a[0, 1] * ((s1 / (2.0 * h1)) * (s2 / (2.0 * h2)))))
    (d1, d2), vals = np.array(list(stencil)).T, np.array(list(stencil.values()))
    i1, i2 = np.divmod(np.arange(n1 * n2)[:, None], n2)
    rows = np.where((0 <= i1 + d1) & (i1 + d1 < n1), (i1 + d1) * n2 + (i2 + d2) % n2, -1)
    order = np.argsort(rows, axis=1)  # ascending rows; the -1 off the line come first
    rows = np.take_along_axis(rows, order, 1)
    keep = rows >= 0
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return splu(sp.csc_matrix((vals[order][keep], rows[keep], indptr), shape=(n1 * n2,) * 2))


def _cfl_check(coeffs, grid):
    norm = float(np.max(np.abs(np.linalg.eigvalsh(coeffs.a))))
    dx = grid.dx1 if grid.dim == 1 else min(grid.dx1, grid.dxp)
    limit = DEFAULT_CFL * dx * dx / (2.0 * norm)
    if grid.dt > limit * (1.0 + 1e-12):
        raise ModelError(
            f"time step {grid.dt:.3e} violates the noise stability restriction "
            f"{limit:.3e} (c_cfl = {DEFAULT_CFL})"
        )


class _Stepper:
    """One step u_j -> u_{j+1} for the operator a; I - dt a:D^2 is factored once.

    A state has shape (*space, *stack, paths): the stack axes hold states
    that share the operator and the noise.  The step touches only the
    unknown nodes, u[1:-1] on a wall grid and all of u on a periodic line.
    Its explicit stage is u_j + dt f + sum_k G_k dw^k there, with f and
    the formed noise terms G_k dw^k from the caller, restricted to the
    unknown nodes, so two states stepped on one noise share its products.
    It writes u_{j+1} into those rows of u.  The solve keeps a non-finite
    value in its own column, so one sum of its output screens for one, and
    only a non-finite sum has the columns scanned for the first bad path,
    in (stack, path) order.
    """

    def __init__(self, a, grid):
        self.grid = grid
        self.matrix = _implicit_matrix(a, grid)
        self.unknown = slice(None) if grid.periodic_x1 else slice(1, -1)  # x1 rows stepped

    def __call__(self, u, j, f=None, noise=()):
        """Step u in place on the unknown nodes; noise lists the terms G_k dw^k."""
        core = u[self.unknown]
        expl = core.copy() if f is None else core + self.grid.dt * f
        for term in noise:
            expl += term
        out = self.matrix.solve(expl.reshape(math.prod(expl.shape[: self.grid.dim]), -1))
        if not math.isfinite(out.sum()):  # finite values can still sum past the range
            bad = np.flatnonzero(~np.isfinite(out).all(axis=0))
            if bad.size:
                raise BlowUpError(path=int(bad[0]) % u.shape[-1], step=j + 1)
        core[...] = out.reshape(core.shape)


def _integrand(sigma, u, grid, dw, g=None):
    """The noise terms (sigma^{ik} D_i u + g^k) dw^k on the unknown nodes, for
    each mode k in which either part is nonzero; dw holds one step's increments
    (paths, modes).  A direction is differenced only if its sigma row is nonzero."""
    noisy = np.any(sigma, axis=1).tolist()  # directions with a sigma row
    if noisy[0]:
        du1 = _diff(u, grid.dx1, 0, True, 1) if grid.periodic_x1 else _centred(u, grid.dx1, 0, 1)
    if grid.dim == 2 and noisy[1]:
        du2 = _diff(u[1:-1], grid.dxp, 1, True, 1)
    terms = []
    for k in range(sigma.shape[1]):
        term = None
        if sigma[0, k]:
            term = sigma[0, k] * du1
        if grid.dim == 2 and sigma[1, k]:
            term = sigma[1, k] * du2 if term is None else term + sigma[1, k] * du2
        if g is not None:
            term = g[k] if term is None else term + g[k]
        if term is not None:
            terms.append(term * dw[:, k])
    return terms


def _steps(coeffs, forcing, grid, noise, u):
    """Step the state u, shape (*space, paths), in place through every time
    step, yielding j after the step j -> j + 1.  The preconditions run at
    the call, before the operator is factored or anything is stepped."""
    _check_inputs(coeffs, forcing, grid, noise)
    if u.shape != grid.space_shape + (noise.n_paths,):
        raise ModelError("u0 has the wrong shape")
    # the forcing as ([modes,] steps+1, *space, paths) views
    f_vals = None if forcing.f is None else np.moveaxis(forcing.f.values, 0, -1)
    g_vals = None if forcing.g is None else np.moveaxis(forcing.g.values, (0, -1), (-1, 0))
    step = _Stepper(coeffs.a, grid)

    def loop():
        for j in range(grid.steps):
            f = None if f_vals is None else f_vals[j, step.unknown]
            g = None if g_vals is None else g_vals[:, j, step.unknown]
            step(u, j, f, _integrand(coeffs.sigma, u, grid, noise.increments[:, j], g))
            yield j

    return loop()


def _check_inputs(coeffs, forcing, grid, noise):
    """Preconditions shared by every solver entry point."""
    if grid.dim != coeffs.dim:
        raise ModelError(f"grid dim {grid.dim} != coefficient dim {coeffs.dim}")
    if grid.periodic_x1 and grid.n_x1 < 3:
        # the wrap and the direct neighbour would be one node
        raise ModelError(f"a periodic line needs at least 3 nodes, got {grid.n_x1}")
    if noise.n_steps != grid.steps or noise.n_modes != coeffs.n_modes:
        raise ModelError("noise batch does not match grid steps / mode count")
    if abs(noise.dt - grid.dt) > 1e-12 * grid.dt:
        raise ModelError("noise increment variance does not match the grid step")
    rep = check_parabolicity(coeffs, times=(0.0,))  # constant: t_0 alone, by name for the tracer
    if not rep.passed:
        raise ModelError(
            f"coefficients are not admissible: margins {rep.lower_margin:.3e}, "
            f"{rep.upper_margin:.3e} at t = {rep.worst_time}"
        )
    forcing.validate(grid, coeffs.n_modes, noise.n_paths)
    _cfl_check(coeffs, grid)


def solve_model_halfspace(
    coeffs: ModelCoefficients, forcing: Forcing, grid: SpaceTimeGrid, noise: WienerBatch
) -> FieldEnsemble:
    """Run the semi-implicit scheme on the Dirichlet half-space grid and
    return the whole history."""
    if grid.periodic_x1:
        raise ModelError("use solve_periodic_line for the surrogate grid")
    u = np.zeros(grid.space_shape + (noise.n_paths,))
    steps = _steps(coeffs, forcing, grid, noise, u)
    out = np.zeros((noise.n_paths, grid.steps + 1) + grid.space_shape)
    for j in steps:
        out[:, j + 1] = np.moveaxis(u, -1, 0)
    return FieldEnsemble(out, grid)


def solve_periodic_line(coeffs, forcing, grid, noise, *, u0=None):
    """Whole-line surrogate: dim-1 periodic grid, no Dirichlet wall.

    Exists for spectral oracles (single-mode moment decay); the wall
    studies never use it.  Returns the terminal state (paths, n_x1).
    """
    if not (grid.periodic_x1 and grid.dim == 1):
        raise ModelError("solve_periodic_line needs a periodic dim-1 grid")
    shape = grid.space_shape + (noise.n_paths,)
    u = np.zeros(shape) if u0 is None else np.moveaxis(u0, 0, -1).copy()
    for _ in _steps(coeffs, forcing, grid, noise, u):
        pass
    return np.moveaxis(u, -1, 0)


def interpolate_coefficients(coeffs: ModelCoefficients, s: float) -> ModelCoefficients:
    """Operator family L_s = s L + (1-s) Laplacian, noise scaled by s."""
    return ModelCoefficients(
        dim=coeffs.dim,
        n_modes=coeffs.n_modes,
        a=s * coeffs.a + (1.0 - s) * np.eye(coeffs.dim),
        sigma=s * coeffs.sigma,
        # convexity with the Laplacian keeps the family uniformly admissible
        kappa=min(coeffs.kappa, 2.0),
        bound=max(coeffs.bound, 2.0),
    )


def continuity_iterates(
    coeffs: ModelCoefficients,
    s: float,
    s0: float,
    forcing: Forcing,
    grid: SpaceTimeGrid,
    noise: WienerBatch,
    n_iter: int,
):
    """The continuity iteration toward the operator at s, all iterates at once.

    Iterate m solves the s0 problem with the operator increment applied
    to iterate m - 1 as extra forcing (iterate 0 is zero):

        f_eff = f + (s - s0) (a - I) D^2 v_{m-1},
        g_eff = g + (s - s0) sigma D v_{m-1}.

    Iterate m at step j needs only iterate m - 1 at time j, so one time
    loop advances every iterate: each step forms D v once, for the extra
    terms of iterates 0..n_iter-1 and the noise of 1..n_iter, and makes
    one `_Stepper` call on the stack of iterates 1..n_iter.  One-dimensional
    Dirichlet grids only.

    Returns (diffs, states): diffs[m - 2] = sup_t max_x E|v_m - v_{m-1}|^2
    for m = 2..n_iter, and the final states (n_iter, paths, n_x1).  The
    running max keeps path sums, in path order, and divides by paths at
    the end: max commutes with rounding and with division by paths > 0.
    """
    if grid.dim != 1 or grid.periodic_x1:
        raise ModelError("the continuity iteration runs on a 1-D Dirichlet grid")
    if n_iter < 1:
        raise ModelError(f"n_iter must be >= 1, got {n_iter}")
    frozen = interpolate_coefficients(coeffs, s0)
    _check_inputs(frozen, forcing, grid, noise)
    step = _Stepper(frozen.a, grid)
    ds, h, paths = s - s0, grid.dx1, noise.n_paths
    a_dev, sig, sig0 = coeffs.a[0, 0] - 1.0, coeffs.sigma[0], frozen.sigma[0]
    # (x1, iterate, path); slot 0 holds the zero iterate, the wall rows stay zero
    u = np.zeros((grid.n_x1, n_iter + 1, paths))
    peak = np.zeros((grid.n_x1 - 2, n_iter - 1))  # running max over t of the path sums
    # the forcing on the unknown nodes as ([modes,] steps+1, x1, 1, paths) views
    if forcing.f is not None:
        f_vals = np.moveaxis(forcing.f.values[:, :, 1:-1], 0, -1)[:, :, None]
    if forcing.g is not None:
        g_vals = np.moveaxis(forcing.g.values[:, :, 1:-1], (0, -1), (-1, 0))[:, :, :, None]
    for j in range(grid.steps):
        f = ds * (a_dev * _centred(u[:, :-1], h, 0, 2))
        if forcing.f is not None:
            f = f_vals[j] + f
        dv = _centred(u, h, 0, 1)
        g = ds * (sig[:, None, None, None] * dv[:, :-1])
        if forcing.g is not None:
            g = g_vals[:, j] + g
        dw = noise.increments[:, j]
        g = [((sig0[k] * dv[:, 1:]) + g[k] if sig0[k] else g[k]) * dw[:, k] for k in range(len(g))]
        step(u[:, 1:], j, f, g)
        gap = u[1:-1, 2:] - u[1:-1, 1:-1]
        np.maximum(peak, _ordered_path_sum(gap * gap), out=peak)
    return np.max(peak, axis=0) / paths, np.moveaxis(u[:, 1:], 0, -1)
