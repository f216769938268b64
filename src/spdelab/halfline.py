"""Boundary-data heat solves on the half-line via the Poisson kernel.

The kernel P(s, y) = y / (2 sqrt(pi) s^{3/2}) * exp(-y^2 / (4 s)) pushes
Dirichlet boundary data h (h(0) = 0) into the interior:

    v(t, y) = integral_0^t P(s, y) h(t - s) ds,

and after the Gaussian substitution u = y / (2 sqrt(s)) every evaluation
becomes an integral of (2/sqrt(pi)) exp(-u^2) times a time-shifted copy
of h, which the analytic route integrates.  With h(0) = 0 and h'(0) = 0
the time derivative has the same representation driven by h',
and it coincides with the second space derivative of v; that identity is
the workhorse the stability and refinement studies lean on.

An analytic profile (a numpy-vectorized callable, optionally carrying
per-path amplitudes) is integrated for blocks of (t, y) nodes at once by
one composite Gauss-Legendre rule, graded toward tau -> 0 where data
such as t^{alpha/2} is rough and checked against its bisection at every
node.  Per-path samples are interpolated by a cubic spline, which is a
finite sum of truncated powers (t - t_k)_+^n, n <= 3, one group per knot;
each has a closed-form solve, so that route sums terms and integrates
nothing.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad as _scipy_quad
from scipy.interpolate import CubicSpline
from scipy.special import erfc

from .fields import FieldEnsemble, GridMismatch, SpaceTimeGrid

__all__ = [
    "QuadratureError",
    "KernelQuadrature",
    "BoundaryData",
    "poisson_kernel",
    "kernel_dy",
    "kernel_mass",
    "solve_halfline",
    "dt_v",
    "stability_gap",
    "StabilityReport",
]

_TWO_OVER_SQRTPI = 2.0 / math.sqrt(math.pi)
# exp(-u^2) beyond u0 + 8 contributes below erfc(8) ~ 1.1e-29 of scale
_U_WINDOW = 8.0
# subinterval budget of kernel_mass's adaptive quadrature
_MASS_LIMIT = 200
STABILITY_MARGIN = 1.05


class QuadratureError(RuntimeError):
    """A kernel integral missed its tolerance; estimate is the value
    reached and achieved its error estimate."""

    def __init__(self, message, estimate=None, achieved=None):
        super().__init__(message)
        self.estimate = estimate
        self.achieved = achieved


@dataclass(frozen=True)
class KernelQuadrature:
    """Tolerance of the kernel integrals of analytic data.

    rel_tol, in (0, 1e-4], bounds the graded rule's gap to its bisection
    at every node (absolute floor 1e-14) and is kernel_mass's epsrel.
    Sampled data is solved in closed form and does not read it.
    """

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-4):
            raise ValueError(f"rel_tol must be in (0, 1e-4], got {self.rel_tol}")


def poisson_kernel(s, y):
    """P(s, y) for s > 0, y >= 0; the y = 0 limit is 0."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(s <= 0):
        raise ValueError("poisson_kernel requires s > 0")
    if np.any(y < 0):
        raise ValueError("poisson_kernel is defined for y >= 0")
    return y / (2.0 * math.sqrt(math.pi) * s**1.5) * np.exp(-(y * y) / (4.0 * s))


def kernel_dy(s, y):
    """d/dy of the kernel; kernel_dy(1, 0) = 1 / (2 sqrt(pi))."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(s <= 0):
        raise ValueError("kernel_dy requires s > 0")
    return (
        1.0
        / (2.0 * math.sqrt(math.pi) * s**1.5)
        * np.exp(-(y * y) / (4.0 * s))
        * (1.0 - (y * y) / (2.0 * s))
    )


def kernel_mass(y, quad: KernelQuadrature | None = None) -> float:
    """Total kernel mass integral_0^inf P(s, y) ds, equal to 1.

    Computed through the Gaussian substitution, which maps the mass onto
    (2/sqrt(pi)) * integral_0^inf exp(-u^2) du; the integrand below still
    evaluates the kernel itself so the test exercises the real formula.
    """
    if y <= 0:
        raise ValueError("kernel_mass requires y > 0")
    quad = quad or KernelQuadrature()

    def integrand(u):
        s = y * y / (4.0 * u * u)
        return float(poisson_kernel(s, y)) * y * y / (2.0 * u**3)

    val, err, *info = _scipy_quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=quad.rel_tol,
                                  limit=_MASS_LIMIT, full_output=1)
    if len(info) > 1:
        msg = info[1].splitlines()[0]
        raise QuadratureError(f"kernel_mass: quadrature did not converge ({msg})", val, err)
    return val


# -- boundary data ----------------------------------------------------

_CONSISTENCY_SAFETY = 8.0


@dataclass
class BoundaryData:
    """Wall data h and its time derivative on the grid times.

    Samples have shape (paths, len(times)).  When an analytic profile
    (h_fn, hp_fn) is attached, sample row p equals
    path_scales[p] * h_fn(times), and quadrature evaluates the profile
    exactly instead of interpolating; h_fn and hp_fn must accept numpy
    arrays and act elementwise.  h0_zero / hp0_zero record whether
    the compatibility conditions h(0) = 0 and h'(0) = 0 hold; the kernel
    representation requires the first, the time-derivative route both.
    """

    h: np.ndarray
    h_prime: np.ndarray
    times: np.ndarray
    h0_zero: bool
    hp0_zero: bool
    h_fn: object = None
    hp_fn: object = None
    path_scales: np.ndarray | None = None
    label: str = ""

    @property
    def n_paths(self) -> int:
        return self.h.shape[0]

    @property
    def analytic(self) -> bool:
        return self.h_fn is not None

    @classmethod
    def from_callable(cls, h_fn, hp_fn, times, *, scales=None, smooth=True, label=""):
        """Build data from a closed-form profile, checking consistency.

        ``scales`` turns one profile into a path family
        h_p(t) = scales[p] * h_fn(t); omit it for a single deterministic
        path.  ``smooth=False`` skips the trapezoid consistency check
        (profiles like t^{1+a/2} have unbounded higher derivatives at 0
        and legitimately fail the smooth-data bound).
        """
        times = np.asarray(times, dtype=float)
        base_h = np.asarray([float(h_fn(t)) for t in times])
        base_hp = np.asarray([float(hp_fn(t)) for t in times])
        if scales is None:
            scales = np.ones(1)
        scales = np.asarray(scales, dtype=float)
        h = scales[:, None] * base_h[None, :]
        hp = scales[:, None] * base_hp[None, :]
        data = cls(
            h=h,
            h_prime=hp,
            times=times,
            h0_zero=bool(np.max(np.abs(base_h[0] * scales), initial=0.0) == 0.0),
            hp0_zero=bool(np.max(np.abs(base_hp[0] * scales), initial=0.0) == 0.0),
            h_fn=h_fn,
            hp_fn=hp_fn,
            path_scales=scales,
            label=label,
        )
        if smooth:
            data.check_consistency()
        return data

    @classmethod
    def from_samples(cls, h, h_prime, times, *, label=""):
        h = np.atleast_2d(np.asarray(h, dtype=float))
        h_prime = np.atleast_2d(np.asarray(h_prime, dtype=float))
        times = np.asarray(times, dtype=float)
        if h.shape != h_prime.shape or h.shape[1] != times.shape[0]:
            raise ValueError("h, h_prime and times have inconsistent shapes")
        scale = max(float(np.max(np.abs(h))), 1e-300)
        return cls(
            h=h,
            h_prime=h_prime,
            times=times,
            h0_zero=bool(np.max(np.abs(h[:, 0])) <= 1e-12 * scale),
            hp0_zero=bool(np.max(np.abs(h_prime[:, 0])) <= 1e-12 * scale),
            label=label,
        )

    def check_consistency(self):
        """Trapezoid test that h_prime integrates back to h.

        The per-interval trapezoid defect of smooth data is bounded by
        dt^3/12 * max|h'''|; the third derivative is estimated from
        second differences of the h' samples.
        """
        dt = float(self.times[1] - self.times[0])
        dh = np.diff(self.h, axis=1)
        trap = 0.5 * dt * (self.h_prime[:, 1:] + self.h_prime[:, :-1])
        defect = float(np.max(np.abs(dh - trap)))
        if self.h_prime.shape[1] >= 3:
            m3 = float(np.max(np.abs(np.diff(self.h_prime, n=2, axis=1)))) / dt**2
        else:
            m3 = 0.0
        scale = max(float(np.max(np.abs(self.h))), 1.0)
        tol = _CONSISTENCY_SAFETY * dt**3 / 12.0 * max(m3, 1.0) + 1e-12 * scale
        if defect > tol:
            raise ValueError(
                f"h_prime inconsistent with h: trapezoid defect {defect:.3e} "
                f"exceeds {tol:.3e}; pass smooth=False for profiles with "
                f"unbounded higher derivatives"
            )

    def spline(self, derivative=False) -> CubicSpline:
        # one spline object interpolates every path (values along axis 1)
        values = self.h_prime if derivative else self.h
        return CubicSpline(self.times, values.T, axis=0)


# -- quadrature of the substituted convolution ------------------------


_gauss_rule = lru_cache(maxsize=8)(np.polynomial.legendre.leggauss)


def _panel_rule(edges, order):
    """Points and weights of order-point Gauss-Legendre on every panel."""
    x, w = _gauss_rule(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


# node x point elements per block: caps the temporaries near 128 KB each
_BLOCK_ELEMS = 2**14


@lru_cache(maxsize=1)
def _graded_rule():
    """(d, w) in d = u - u0 on [0, 8] of the graded rule and of its bisection:
    ten points on each of 16 panels shrinking by 1/4 toward d = 0, where
    tau -> 0, and on unit panels over the Gaussian tail.  For t^n and t^{a/2}
    data the bisected rule is exact to ~1e-15 and the coarse one to ~1e-11."""
    edges = np.concatenate([[0.0], 0.25 ** np.arange(16, 0, -1), np.arange(1.0, _U_WINDOW + 1.0)])
    fine = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    return _panel_rule(edges, 10), _panel_rule(fine, 10)


def _analytic_block(fn, t, y, quad: KernelQuadrature) -> np.ndarray:
    """(2/sqrt(pi)) * int_{u0}^{u0+8} exp(-u^2) fn(t - y^2/(4 u^2)) du per node.

    Returns the bisected rule's value, or raises QuadratureError at the
    first node where the coarse rule is further off than
    max(1e-14, rel_tol * |value|).  Each node is summed on its own row
    (not by BLAS), so the bits do not depend on the blocking.
    """
    u0 = (y / (2.0 * np.sqrt(t)))[:, None]
    t = t[:, None]
    est = []
    for d, w in _graded_rule():
        u = u0 + d
        # tau = t - y^2 / (4 u^2), written without the cancellation at u0
        est.append((w * np.exp(-u * u) * fn(t * (d * (2.0 * u0 + d)) / (u * u))).sum(axis=-1))
    coarse, fine = (_TWO_OVER_SQRTPI * e for e in est)
    gap = np.abs(fine - coarse)
    bad = np.flatnonzero(gap > np.maximum(1e-14, quad.rel_tol * np.abs(fine)))
    if bad.size:
        k = bad[0]
        raise QuadratureError(
            f"halfline convolution at (t={t[k, 0]}, y={y[k]}) did not converge: graded "
            f"rule and its bisection differ by {gap[k]:.3e}", fine[k], gap[k])
    return fine


# -- closed-form solve of sampled data --------------------------------

_FACTORIAL = np.array([1.0, 1.0, 2.0, 6.0])


def _ierfc_even(z) -> np.ndarray:
    """i^0, i^2, i^4 and i^6 erfc(z), stacked on a new first axis.

    The upward recurrence of Abramowitz-Stegun 7.2.5 loses relative accuracy
    as z grows, but only on values that fall like exp(-z^2), so its absolute
    error stays near rounding; past z ~ 27 every term underflows to 0.
    """
    prev, cur = _TWO_OVER_SQRTPI * np.exp(-z * z), erfc(z)
    out = [cur]
    for n in range(1, 7):
        prev, cur = cur, (prev - 2.0 * z * cur) / (2.0 * n)
        if n % 2 == 0:
            out.append(cur)
    return np.stack(out)


def _spline_solve(spline, times, y) -> np.ndarray:
    """Exact kernel solve of a cubic spline at every (t_j, y_i) with j >= 1.

    The spline is a sum of increments dc_{n,k} (tau - t_k)_+^n: its first
    cubic at t_0, then at each knot its cubic minus the previous one
    shifted there.  On a C^2 spline only the cubic term jumps; the others
    are rounding-level but add up over many knots, so they stay.  The solve
    of (tau - t_k)_+^n is n! (4 s)^n i^{2n}erfc(y / 2 sqrt(s)), s = t - t_k.
    On rough data the cubic jumps are large and the sum cancels: for a
    128-step random walk the error is about 1e-10 of the data scale.
    """
    a = spline.c[::-1]  # (4, intervals, paths), a[n]: coefficient of (tau - t_k)^n
    h = np.diff(times)[:-1, None]
    shifted = [sum(math.comb(m, n) * h ** (m - n) * a[m, :-1] for m in range(n, 4)) for n in range(4)]
    coef = np.concatenate([a[:, :1], a[:, 1:] - np.stack(shifted)], axis=1)
    out = np.empty((a.shape[2], len(times) - 1, len(y)))
    for j in range(1, len(times)):
        s = times[j] - times[:j]
        # n! (4 s)^n i^{2n}erfc(y / 2 sqrt(s)), indexed (n, k, i)
        kern = (_FACTORIAL[:, None] * (4.0 * s) ** np.arange(4)[:, None])[:, :, None]
        kern = kern * _ierfc_even(y / (2.0 * np.sqrt(s))[:, None])
        out[:, j - 1] = np.einsum("nkp,nki->pi", coef[:, :j], kern)
    return out


def _map_nodes(worker_fn, jobs, workers):
    if workers <= 1:
        return list(map(worker_fn, jobs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker_fn, jobs))


def _check_grid(data: BoundaryData, grid: SpaceTimeGrid):
    if grid.dim != 1 or grid.periodic_x1:
        raise GridMismatch("half-line solves need a dim-1 wall grid")
    if data.times.shape != grid.times.shape or not np.array_equal(data.times, grid.times):
        raise GridMismatch("boundary data is not sampled on the grid times")


def _convolve(data, grid, quad, workers, derivative: bool) -> np.ndarray:
    times, ys = grid.times, grid.x1_nodes
    nt, ny = len(times), len(ys)
    samples = data.h_prime if derivative else data.h
    out = np.zeros((data.n_paths, nt, ny))
    if data.analytic:
        fn = data.hp_fn if derivative else data.h_fn
        tt, yy = (a.ravel() for a in np.meshgrid(times[1:], ys[1:], indexing="ij"))
        flat = np.empty(tt.size)
        # the block partition depends on the rule only, never on workers
        block = max(1, _BLOCK_ELEMS // _graded_rule()[1][0].size)

        def run(k):
            flat[k : k + block] = _analytic_block(fn, tt[k : k + block], yy[k : k + block], quad)

        _map_nodes(run, range(0, tt.size, block), workers)
        out[:, 1:, 1:] = data.path_scales[:, None, None] * flat.reshape(1, nt - 1, ny - 1)
    else:
        out[:, 1:, 1:] = _spline_solve(data.spline(derivative=derivative), times, ys[1:])
    out[:, :, 0] = samples  # the wall column is exact data, never quadrature
    return out


def solve_halfline(data, grid, quad=None, workers=1) -> FieldEnsemble:
    """Kernel solve of the boundary-data heat problem on the half-line.

    Returns v with v(t, 0) equal to the boundary samples exactly and
    v(0, y) = 0.  Interior values of analytic data come from the graded
    Gauss-Legendre rule, evaluated for blocks of nodes at once; workers > 1
    spreads the blocks over threads without changing a bit of the result,
    and QuadratureError names the first node that misses quad.rel_tol.
    Sampled data is solved exactly as a sum of truncated powers, one time
    row at a time, and reads neither quad nor workers.
    """
    quad = quad or KernelQuadrature()
    _check_grid(data, grid)
    if not data.h0_zero:
        raise ValueError("solve_halfline requires h(0) = 0")
    values = _convolve(data, grid, quad, workers, derivative=False)
    return FieldEnsemble(values, grid)


def dt_v(data, grid, quad=None, workers=1) -> FieldEnsemble:
    """Time derivative of the kernel solve, driven by h'.

    Valid when h(0) = 0 and h'(0) = 0 (zero extension of h' across
    t = 0); on the wall it returns h'(t) exactly.  By the kernel
    identity this field also equals the second space derivative of v.
    """
    quad = quad or KernelQuadrature()
    _check_grid(data, grid)
    if not (data.h0_zero and data.hp0_zero):
        raise ValueError("dt_v requires h(0) = 0 and h'(0) = 0")
    values = _convolve(data, grid, quad, workers, derivative=True)
    return FieldEnsemble(values, grid)


@dataclass
class StabilityReport:
    lhs: float
    rhs: float
    gamma: float
    argmax_node: tuple
    passed: bool

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs else math.inf


def stability_gap(data1, data2, grid, quad=None, gamma=2.0, workers=1) -> StabilityReport:
    """Compare the moment gap of two solves against their data gap.

    lhs is the grid sup of the Monte Carlo gamma-moment of the second
    space derivative difference (computed through the time-derivative
    identity); rhs is the time sup of the gamma-moment of h1' - h2'.
    The continuum bound is lhs <= rhs with constant one; the report
    passes at a 5 percent discretization margin.  The sup includes the
    wall column, where dt_v returns h' exactly, so lhs >= rhs always and
    lhs == rhs unless an interior node exceeds the data gap; the reported
    lhs and ratio then show no interior value.  The tests check the
    interior sup against rhs on its own.
    """
    if gamma < 2.0:
        raise ValueError("gamma must be at least 2")
    d1 = dt_v(data1, grid, quad, workers).values
    d2 = dt_v(data2, grid, quad, workers).values
    if d1.shape[0] != d2.shape[0]:
        raise ValueError("data1 and data2 must carry equally many paths")
    moment = np.mean(np.abs(d1 - d2) ** gamma, axis=0)
    flat = int(np.argmax(moment))
    lhs = float(moment.ravel()[flat])
    rhs = float(np.max(np.mean(np.abs(data1.h_prime - data2.h_prime) ** gamma, axis=0)))
    return StabilityReport(
        lhs=lhs,
        rhs=rhs,
        gamma=gamma,
        argmax_node=np.unravel_index(flat, moment.shape),
        passed=lhs <= STABILITY_MARGIN * rhs,
    )
