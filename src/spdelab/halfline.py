"""Boundary-data heat solves on the half-line via the Poisson kernel.

The kernel P(s, y) = y / (2 sqrt(pi) s^{3/2}) * exp(-y^2 / (4 s)) pushes
Dirichlet boundary data h (h(0) = 0) into the interior:

    v(t, y) = integral_0^t P(s, y) h(t - s) ds.

With h(0) = 0 and h'(0) = 0 the time derivative has the same
representation driven by h', and it coincides with the second space
derivative of v; that identity is the workhorse the stability and
refinement studies lean on.

Every kind of wall data is a sum of truncated powers c (t - t_k)_+^nu,
and the solve of each is c Gamma(nu + 1) (4 s)^nu i^{2 nu}erfc(y / 2 sqrt(s)),
s = t - t_k, so one routine sums these terms and integrates nothing; it
evaluates the kernel once for each block of consecutive time rows.
Power data c_p t^nu is one term at t_0 = 0.  Per-path samples are
interpolated by a not-a-knot cubic spline, in scipy's own spline
arithmetic bit for bit, which is one group of terms nu = 0..3 per knot.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, pbdv

from .fields import FieldEnsemble, GridMismatch, SpaceTimeGrid

__all__ = [
    "QuadratureError",
    "BoundaryData",
    "poisson_kernel",
    "kernel_mass",
    "solve_halfline",
    "dt_v",
    "stability_gap",
    "StabilityReport",
]

_TWO_OVER_SQRTPI = 2.0 / math.sqrt(math.pi)
# i^k erfc(z) <= exp(-z^2) is below the least double past z ~ 27.3;
# pbdv returns NaN past z ~ 1467, so it is not called beyond this point
_Z_UNDERFLOW = 30.0
# kernel values per block of time rows; 2^16 raised the spline route's peak RSS
_KERNEL_BLOCK = 2**14
# subinterval budget and relative tolerance of kernel_mass's adaptive quadrature
_MASS_LIMIT = 200
_MASS_REL_TOL = 1e-10
STABILITY_MARGIN = 1.05


class QuadratureError(RuntimeError):
    """A kernel integral missed its tolerance; estimate is the value
    reached and achieved its error estimate."""

    def __init__(self, message, estimate=None, achieved=None):
        super().__init__(message)
        self.estimate = estimate
        self.achieved = achieved


def poisson_kernel(s, y):
    """P(s, y) for s > 0, y >= 0; the y = 0 limit is 0."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(s > 0):  # NaN fails this, unlike np.any(s <= 0)
        raise ValueError("poisson_kernel requires s > 0")
    if not np.all(np.isfinite(y) & (y >= 0)):
        raise ValueError("poisson_kernel is defined for finite y >= 0")
    return y / (2.0 * math.sqrt(math.pi) * s**1.5) * np.exp(-(y * y) / (4.0 * s))


def kernel_mass(y) -> float:
    """Total kernel mass integral_0^inf P(s, y) ds, equal to 1.

    Computed through the Gaussian substitution, which maps the mass onto
    (2/sqrt(pi)) * integral_0^inf exp(-u^2) du; the integrand below still
    evaluates the kernel itself so the test exercises the real formula, at
    2^-k y in [1, 2): P(4^k s, 2^k y) = 4^-k P(s, y) holds exactly in floating
    point, so that is y's integrand bit for bit wherever y's is finite.
    A miss of the adaptive quadrature's tolerance raises QuadratureError.
    quad is imported on call, for this check only.
    """
    from scipy.integrate import quad
    if not (0.0 < y < math.inf):
        raise ValueError(f"kernel_mass requires a finite y > 0, got y = {y}")
    y = math.ldexp(math.frexp(y)[0], 1)

    def integrand(u):
        s = y * y / (4.0 * u * u)
        return float(poisson_kernel(s, y)) * y * y / (2.0 * u**3)

    val, err, *info = quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=_MASS_REL_TOL,
                           limit=_MASS_LIMIT, full_output=1)
    if len(info) > 1:
        msg = info[1].splitlines()[0]
        raise QuadratureError(f"kernel_mass: quadrature did not converge ({msg})", val, err)
    return val


# -- boundary data ----------------------------------------------------


def _require_finite(**arrays):
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite, got {a[~np.isfinite(a)][0]}")


@dataclass
class BoundaryData:
    """Wall data h and its time derivative on the grid times.

    Samples have shape (paths, len(times)).  Power data (from_power)
    keeps its order: sample row p is path_scales[p] * t^power, and the
    solve takes the power's closed form instead of interpolating the
    samples.  h0_zero / hp0_zero record whether the compatibility
    conditions h(0) = 0 and h'(0) = 0 hold; the kernel representation
    requires the first, the time-derivative route both.
    """

    h: np.ndarray
    h_prime: np.ndarray
    times: np.ndarray
    h0_zero: bool
    hp0_zero: bool
    power: float | None = None
    path_scales: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.h.shape[0]

    @property
    def analytic(self) -> bool:
        return self.power is not None

    @classmethod
    def from_power(cls, nu, times, *, scales=None):
        """Power data h_p(t) = scales[p] * t^nu, nu >= 1, with h' = nu t^{nu - 1}.

        ``scales`` turns the power into a path family; omit it for a
        single deterministic path.  Each sample is one scalar pow, which
        can differ in the last bit from numpy's array power.
        """
        nu = float(nu)
        if not 1.0 <= nu < math.inf:
            raise ValueError(f"from_power needs a finite nu >= 1, got {nu}")
        times = np.asarray(times, dtype=float)
        scales = np.ones(1) if scales is None else np.asarray(scales, dtype=float)
        _require_finite(times=times, scales=scales)
        h = scales[:, None] * np.array([t**nu for t in times])[None, :]
        hp = scales[:, None] * np.array([nu * t ** (nu - 1.0) for t in times])[None, :]
        return cls(
            h=h,
            h_prime=hp,
            times=times,
            h0_zero=not np.any(h[:, 0]),
            hp0_zero=not np.any(hp[:, 0]),
            power=nu,
            path_scales=scales,
        )

    @classmethod
    def from_samples(cls, h, h_prime, times):
        h = np.atleast_2d(np.asarray(h, dtype=float))
        h_prime = np.atleast_2d(np.asarray(h_prime, dtype=float))
        times = np.asarray(times, dtype=float)
        if h.shape != h_prime.shape or h.shape[1] != times.shape[0]:
            raise ValueError("h, h_prime and times have inconsistent shapes")
        _require_finite(h=h, h_prime=h_prime, times=times)
        scale = max(float(np.max(np.abs(h))), 1e-300)
        return cls(
            h=h,
            h_prime=h_prime,
            times=times,
            h0_zero=bool(np.max(np.abs(h[:, 0])) <= 1e-12 * scale),
            hp0_zero=bool(np.max(np.abs(h_prime[:, 0])) <= 1e-12 * scale),
        )

    def spline(self, derivative=False) -> np.ndarray:
        """Not-a-knot cubic spline of h (or h') through every path, as its
        (4, intervals, paths) coefficients c[m, k] of (tau - t_k)^{3 - m}, in
        scipy's arithmetic step for step (dgtsv as solve_banded calls it; dgesv
        on 3 knots; the chord on 2), so c equals scipy's spline coefficients.
        Only sampled data is splined, so scipy.linalg loads on the first call."""
        from scipy.linalg.lapack import dgesv, dgtsv
        y = (self.h_prime if derivative else self.h).T
        if not np.all(np.isfinite(y)):
            raise ValueError("spline samples must be finite")
        x, h = self.times, np.diff(self.times)
        dx = h[:, None]
        slope = np.diff(y, axis=0) / dx
        if len(x) == 2:
            s = np.concatenate([slope, slope])
        elif len(x) == 3:
            a = np.array([[1.0, 1.0, 0.0], [h[1], 2 * (h[0] + h[1]), h[0]], [0.0, 1.0, 1.0]])
            b = np.stack([2 * slope[0], 3 * (dx[0] * slope[1] + dx[1] * slope[0]), 2 * slope[1]])
            s = dgesv(a, b)[2]
        else:
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            b0 = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
            b = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
            bn = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
            diag = np.concatenate([h[1:2], 2 * (h[:-1] + h[1:]), h[-2:-1]])
            s = dgtsv(np.append(h[1:], d1), diag, np.append(d0, h[:-1]), np.vstack([b0, b, bn]))[3]
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


# -- closed-form solve of truncated powers -----------------------------


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


def _ierfc(orders, z) -> np.ndarray:
    """i^{2 nu} erfc(z) for each nu in orders, stacked on a new first axis.

    Orders 0..3 come from the recurrence, the others from the parabolic
    cylinder function (DLMF 7.18 and 12.7),
    i^{2 nu}erfc(z) = (2/sqrt(pi)) 2^{-nu - 1/2} exp(-z^2/2) D_{-2 nu - 1}(sqrt(2) z),
    evaluated only below _Z_UNDERFLOW, once per distinct z: on a uniform grid
    z = y / (2 sqrt(s)) is bit-equal at nodes (i, m) and (2i, 4m).
    """
    out = np.zeros((len(orders),) + z.shape)
    even = None
    for m, nu in enumerate(orders):
        if nu in (0.0, 1.0, 2.0, 3.0):
            even = _ierfc_even(z) if even is None else even
            out[m] = even[int(nu)]
        else:
            live = z < _Z_UNDERFLOW
            u, back = np.unique(z[live], return_inverse=True)
            d, _ = pbdv(-2.0 * nu - 1.0, math.sqrt(2.0) * u)
            out[m][live] = (_TWO_OVER_SQRTPI * 2.0 ** (-nu - 0.5) * np.exp(-0.5 * u**2) * d)[back]
    return out


def _spline_increments(c, times) -> np.ndarray:
    """Spline coefficients c as increments dc_{n,k} of (tau - t_k)_+^n, n = 0..3.

    Its first cubic at t_0, then at each knot its cubic minus the previous
    one shifted there.  On a C^2 spline only the cubic term jumps; the
    others are rounding-level but add up over many knots, so they stay.
    On rough data the cubic jumps are large and the sum cancels: for a
    128-step random walk the error is about 1e-10 of the data scale.
    Returned as (4, knots, paths), knots t_0 .. t_{n-2}.
    """
    a = c[::-1]  # (4, intervals, paths), a[n]: coefficient of (tau - t_k)^n
    h = np.diff(times)[:-1, None]
    shifted = [sum(math.comb(m, n) * h ** (m - n) * a[m, :-1] for m in range(n, 4)) for n in range(4)]
    return np.concatenate([a[:, :1], a[:, 1:] - np.stack(shifted)], axis=1)


def _power_sum(coef, orders, knots, times, y, out, workers):
    """Kernel solve of sum_{n,k} coef[n, k] (tau - knots[k])_+^{orders[n]} into
    out[:, j - 1, i], at (times[j], y[i]) for every j >= 1.

    The solve of (tau - t_k)_+^nu is Gamma(nu + 1) (4 s)^nu i^{2 nu}erfc(y / 2 sqrt(s)),
    s = t - t_k; row j sums the knots below t_j.  coef is (orders, knots,
    paths).  The kernel is evaluated once per block of consecutive rows, at
    most _KERNEL_BLOCK values (at least one row); each row then sums its own
    contiguous copy of its slice, so the bits depend neither on the blocks nor
    on workers > 1, which spreads the blocks over threads.
    """
    orders = np.asarray(orders, dtype=float)
    gam = np.array([math.gamma(nu + 1.0) for nu in orders])[:, None]
    ks = np.searchsorted(knots, times[1:])  # knots below times[r + 1], out row r
    blocks, size = [[]], 0
    for r, n in enumerate(len(orders) * len(y) * ks):
        if blocks[-1] and size + n > _KERNEL_BLOCK:
            blocks.append([])
            size = 0
        blocks[-1].append(r)
        size += n

    def block(rows):
        s = np.concatenate([times[r + 1] - knots[: ks[r]] for r in rows])
        # Gamma(nu + 1) (4 s)^nu i^{2 nu}erfc(y / 2 sqrt(s)), indexed (n, k, i)
        kern = (gam * (4.0 * s) ** orders[:, None])[:, :, None]
        kern = kern * _ierfc(orders, y / (2.0 * np.sqrt(s))[:, None])
        for r, end in zip(rows, np.cumsum(ks[rows])):
            row = np.ascontiguousarray(kern[:, end - ks[r] : end])
            out[:, r] = np.einsum("nkp,nki->pi", coef[:, : ks[r]], row)

    if workers <= 1:
        for rows in blocks:
            block(rows)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block, blocks))


def _check_grid(data: BoundaryData, grid: SpaceTimeGrid):
    if grid.dim != 1 or grid.periodic_x1:
        raise GridMismatch("half-line solves need a dim-1 wall grid")
    if data.times.shape != grid.times.shape or not np.array_equal(data.times, grid.times):
        raise GridMismatch("boundary data is not sampled on the grid times")


def _convolve(data, grid, workers, derivative: bool) -> np.ndarray:
    times, ys = grid.times, grid.x1_nodes
    out = np.zeros((data.n_paths, len(times), len(ys)))
    if data.analytic:
        # one term at t_0: h = c t^nu, or h' = c nu t^{nu - 1}
        nu = data.power - 1.0 if derivative else data.power
        scale = data.power if derivative else 1.0
        coef = (scale * data.path_scales)[None, None, :]
        orders, knots = [nu], times[:1]
    else:
        coef = _spline_increments(data.spline(derivative=derivative), times)
        orders, knots = [0.0, 1.0, 2.0, 3.0], times[:-1]
    _power_sum(coef, orders, knots, times, ys[1:], out[:, 1:, 1:], workers)
    out[:, :, 0] = data.h_prime if derivative else data.h  # the wall column is exact data
    return out


def solve_halfline(data, grid, workers=1) -> FieldEnsemble:
    """Kernel solve of the boundary-data heat problem on the half-line.

    Returns v with v(t, 0) equal to the boundary samples exactly and
    v(0, y) = 0.  Interior values are exact solves of truncated powers:
    one term for power data, the cubic spline's terms for sampled data,
    with the kernel evaluated once per block of time rows.  workers > 1
    spreads the blocks over threads without changing a bit of the result.
    """
    _check_grid(data, grid)
    if not data.h0_zero:
        raise ValueError("solve_halfline requires h(0) = 0")
    return FieldEnsemble(_convolve(data, grid, workers, derivative=False), grid)


def dt_v(data, grid, workers=1) -> FieldEnsemble:
    """Time derivative of the kernel solve, driven by h'.

    Valid when h(0) = 0 and h'(0) = 0 (zero extension of h' across
    t = 0); on the wall it returns h'(t) exactly.  By the kernel
    identity this field also equals the second space derivative of v.
    """
    _check_grid(data, grid)
    if not (data.h0_zero and data.hp0_zero):
        raise ValueError("dt_v requires h(0) = 0 and h'(0) = 0")
    return FieldEnsemble(_convolve(data, grid, workers, derivative=True), grid)


@dataclass
class StabilityReport:
    lhs: float
    rhs: float
    gamma: float
    passed: bool

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs else math.inf


def stability_gap(data1, data2, grid, gamma=2.0, workers=1) -> StabilityReport:
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
    if not 2.0 <= gamma < math.inf:  # NaN fails too
        raise ValueError(f"gamma must be {'at least 2' if gamma < 2.0 else 'finite'}, got {gamma}")
    d1 = dt_v(data1, grid, workers).values
    d2 = dt_v(data2, grid, workers).values
    if d1.shape[0] != d2.shape[0]:
        raise ValueError("data1 and data2 must carry equally many paths")
    np.abs(np.subtract(d1, d2, out=d1), out=d1)  # the gap, formed in d1: no temporaries
    d1 **= gamma  # in place, ** keeps its square fast path, so the bits stay
    lhs = float(np.max(np.mean(d1, axis=0)))
    rhs = float(np.max(np.mean(np.abs(data1.h_prime - data2.h_prime) ** gamma, axis=0)))
    return StabilityReport(
        lhs=lhs,
        rhs=rhs,
        gamma=gamma,
        passed=lhs <= STABILITY_MARGIN * rhs,
    )
