"""Monte Carlo Hölder norms of path-ensemble fields.

All norms use the expectation-first convention: the magnitude of a field
value (or of a difference) is its L^gamma norm over paths, with an ell^2
reduction over noise modes taken before the absolute value; quotients by
powers of the node distance are formed afterwards, and grid suprema are
taken last.  One path without modes at gamma = 2 takes the magnitude
itself, |x| or |a - b|: the root of the square has its bits wherever the
square neither overflows nor underflows.  More paths square before they
sum, so a derivative whose largest magnitude lies outside
[2^-400, 2^400] is scaled by a power of two, which scales every moment
exactly, and its norms are scaled back; ``finite_diff`` itself can still
overflow on a field near the top of the float range.  Grid suprema are
lower bounds of the continuum norms; the refinement studies track their
stability instead of claiming exactness.

Difference quotients run over a stencil of lattice offsets set by the
pair policy the ``NormSpec`` names; the caller chooses it, nothing here
does.  ``exhaustive`` (the default, the grid supremum) takes every node
pair qa < qb in C-order, without wrapping, on lattices of at most
``EXHAUSTIVE_LIMIT`` nodes, grouped by the first component o of their
offset: one broadcast difference joins every node of row r to every node
of row r + o (at o = 0 only the later ones).  A one-axis lattice is one
row, so one term, blocked by base node p; its denominators are a view
over q - p, inf where q <= p.  ``dyadic`` (a lower bound of it) takes
powers of two along each axis, unit diagonals between space axes and
parabolically balanced offsets (4^j steps against 2^j cells), wrapping
on periodic axes, so the n/2 offset of an even periodic axis meets each
pair in both orientations and counts both in ``pairs``; all pairs of one
offset are one difference of two slices of the field.  Chaining a pair
through the binary digits of its distance brackets the two: dyadic <=
exhaustive <= C dyadic, C = n_space C_alpha for the space seminorm and
max(C_{alpha/2}, n_space C_alpha) for the parabolic one, with
C_beta = 1 / (1 - 2^-beta).  Denominators
|x - y|^alpha + |t - s|^{alpha/2} (periodic distance on periodic axes)
are looked up by |offset|.  Each derivative D^beta is formed once
(``finite_diff``, a block of time levels at a time) into one buffer
reused for every beta: levels, grid axes wrap-padded where the stencil
wraps, paths, modes, in C-order.  The sup reads it a block of levels at
a time and sums paths in path order, as ``np.mean(axis=0)`` sums the
path-major field; the quotients difference two slices of it into one
reused block buffer and sum paths pairwise, as ``np.mean(axis=-1)``
sums a gathered pair list; both bit for bit.  A block holds leading
rows of about 2^19 bytes, at least one row of every batch entry.

Ties are broken deterministically: dyadic keeps the earliest offset, then
the earliest base node in C-order (strict ``>``); exhaustive keeps the
smallest (qa, qb); the space seminorm takes the earliest time level
first.  If every quotient vanishes the argmax is ``()``.

Time-constant data (a zero time stride, as the Schauder data f and g
have) takes its sup norm and space seminorm on time level 0 alone: ties
keep level 0, so value and argmax equal the full pass; ``pairs`` still
counts every level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    _BLOCK, FieldEnsemble, _along, _one_level, _ordered_path_sum, _pairwise_path_sum, finite_diff
)

__all__ = [
    "NormSpec",
    "NormResult",
    "SchauderReport",
    "sup_norm",
    "space_seminorm",
    "parabolic_seminorm",
    "trace_parabolic_norm",
    "schauder_ratio",
]


@dataclass(frozen=True)
class NormSpec:
    """Hölder exponent, moment order and pair policy for norm estimates."""

    alpha: float
    gamma: float = 2.0
    pair_policy: str = "exhaustive"

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 2.0 <= self.gamma < math.inf:  # NaN fails too
            bound = "at least 2" if self.gamma < 2.0 else "finite"
            raise ValueError(f"gamma must be {bound}, got {self.gamma}")
        if self.pair_policy not in ("exhaustive", "dyadic"):
            raise ValueError(f"unknown pair policy {self.pair_policy!r}")


@dataclass
class NormResult:
    kind: str
    value: float
    m: int
    alpha: float
    gamma: float
    beta: tuple = ()
    argmax: tuple = ()
    pairs: int = 0


def _multi_indices(dim, order):
    if dim == 1:
        return [(order,)]
    return [(order - k, k) for k in range(order + 1)]


# most grid nodes the exhaustive policy enumerates; a larger lattice is refused
EXHAUSTIVE_LIMIT = 20000


def _moment(x, gamma, has_modes, path_sum):
    """L^gamma over the paths axis of the (mode-ell2) magnitude, paths summed by
    path_sum; the paths axis is last, or last but the modes."""
    if gamma == 2.0 and not has_modes and x.shape[-1] == 1:  # one path: its magnitude
        return np.abs(x[..., 0])
    a = np.sqrt(np.sum(x * x, axis=-1)) if has_modes else x
    # x * x is |x| * |x| bit for bit, so gamma = 2 takes no magnitude pass
    s = path_sum(a * a if gamma == 2.0 else (a if has_modes else np.abs(a)) ** gamma)
    s /= a.shape[-1]  # np.mean's division
    return np.sqrt(s, out=s) if gamma == 2.0 else s ** (1.0 / gamma)


def _difference_moment(a, b, buf, gamma, has_modes):
    """``_moment(a - b, gamma, has_modes, _pairwise_path_sum)`` bit for bit, a - b in
    buf; one path at gamma = 2 takes |a - b| there."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    d = np.subtract(a, b, out=buf[: math.prod(shape)].reshape(shape))
    if gamma != 2.0 or has_modes:
        return _moment(d, gamma, has_modes, _pairwise_path_sum)
    if shape[-1] == 1:
        return np.abs(d[..., 0], out=d[..., 0])
    q = _pairwise_path_sum(np.multiply(d, d, out=d))
    q /= shape[-1]
    return np.sqrt(q, out=q)


# -- offset stencil ---------------------------------------------------


def _dyadic_offsets(shape, periodic, time_axis):
    offs = []
    ndim = len(shape)
    for a, n in enumerate(shape):
        cap = n // 2 if periodic[a] else n - 1
        o = 1
        while o <= cap:
            v = [0] * ndim
            v[a] = o
            offs.append(tuple(v))
            o *= 2
    space_axes = [a for a in range(ndim) if a != time_axis]
    for i in range(len(space_axes)):
        for j in range(i + 1, len(space_axes)):
            for s in (1, -1):
                v = [0] * ndim
                v[space_axes[i]] = 1
                v[space_axes[j]] = s
                offs.append(tuple(v))
    if time_axis is not None:
        # parabolically balanced offsets: 4^j steps against 2^j cells
        for a in space_axes:
            cap = shape[a] // 2 if periodic[a] else shape[a] - 1
            j = 1
            while 4**j <= shape[time_axis] - 1 and 2**j <= cap:
                v = [0] * ndim
                v[time_axis] = 4**j
                v[a] = 2**j
                offs.append(tuple(v))
                j += 1
    return offs


@dataclass
class _Stencil:
    """Dyadic: offset i joins node start[i] + k, k over base[i] in C-order, to
    that node plus offsets[i], wrapped on the wrap axes; slices[i] are the
    two ends in the batched, wrap-padded field.  Exhaustive: the nodes form
    rows[0] rows of m = rows[1] in C-order, one row on a one-axis lattice;
    term o joins node p of row r to node q of row r + o (p < q at o = 0), at
    offset offsets[o * m + didx[p, q]], or offsets[q - p] on one axis."""

    shape: tuple
    wrap: tuple
    pad: list
    offsets: np.ndarray
    pairs: int
    base: np.ndarray = None
    start: np.ndarray = None
    slices: list = ()
    rows: tuple = ()
    didx: np.ndarray = None

    def pair(self, i, k):
        """Node pair (a, b) of flat index k of term i, in plain ints."""
        if self.rows:
            (n0, m), shape = self.rows, self.shape
            r, p, q = np.unravel_index(k, (n0 - i, m, m))
            ia, ib = np.unravel_index(r * m + p, shape), np.unravel_index((r + i) * m + q, shape)
        else:
            ia = self.start[i] + np.unravel_index(k, tuple(self.base[i]))
            ib = (b % n if w else b for b, n, w in zip(ia + self.offsets[i], self.shape, self.wrap))
        return tuple(map(int, ia)), tuple(map(int, ib))


@functools.lru_cache(maxsize=16)
def _stencil(shape, periodic, time_axis, policy) -> _Stencil:
    """The stencil of one grid and policy; shared between calls, never modified."""
    ndim, n = len(shape), math.prod(shape)
    if policy == "exhaustive" and n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"{n} nodes exceed the exhaustive budget {EXHAUSTIVE_LIMIT}")
    if policy == "exhaustive":
        tail = np.indices(shape[1:]).reshape(ndim - 1, n // shape[0])
        didx = np.ravel_multi_index(tuple(abs(tail[:, :, None] - tail[:, None, :])), shape[1:])
        offs = np.indices(shape).reshape(ndim, n).T
        rows = (shape[0], n // shape[0]) if ndim > 1 else (1, n)  # one axis: one row of n nodes
        return _Stencil(shape, (), [(0, 0)] * ndim, offs, n * (n - 1) // 2, rows=rows, didx=didx)
    offs = np.array(_dyadic_offsets(shape, periodic, time_axis), int).reshape(-1, ndim)
    n, w = np.array(shape), np.array(periodic)
    lo = np.where(w, -offs.min(axis=0, initial=0), 0)
    pad = [(int(a), int(b)) for a, b in zip(lo, np.where(w, offs.max(axis=0, initial=0), 0))]
    base = np.where(w, n, n - np.abs(offs))
    # drop offsets without base nodes and those joining every node to itself
    keep = (base > 0).all(axis=1) & ~np.where(w, offs % n == 0, offs == 0).all(axis=1)
    offs, base = offs[keep], base[keep]
    start = np.where(w, 0, np.maximum(0, -offs))
    a0, b0 = start + lo, start + lo + offs
    slices = [
        ((slice(None), *map(slice, a, a1)), (slice(None), *map(slice, b, b1)))
        for a, a1, b, b1 in zip(*(e.tolist() for e in (a0, a0 + base, b0, b0 + base)))
    ]
    pairs = int(np.prod(base, axis=1).sum())
    return _Stencil(shape, periodic, pad, offs, pairs, base, start, slices)


def _stencil_max(x, n_modes, shape, spacings, periodic, time_axis, spec):
    """Largest pair quotient of a field over a batch of copies of the grid.

    x: the engine's layout, (batch, *shape wrap-padded by the stencil's pad,
    paths[, modes]), C-contiguous but for broadcast leading axes.  Returns
    the stencil, the largest quotient, the first batch entry attaining it
    and its pair, () if every quotient vanishes.
    """
    n_pts, policy = math.prod(shape), spec.pair_policy
    st = _stencil(shape, periodic, time_axis, policy)

    d = np.abs(st.offsets)
    space_sq, dt_term = np.zeros(len(d)), np.zeros(len(d))
    for a, (n, h, per) in enumerate(zip(shape, spacings, periodic)):
        da = np.minimum(d[:, a], n - d[:, a]) if per else d[:, a]
        if a == time_axis:
            dt_term = (da * h) ** (spec.alpha / 2.0)
        else:
            space_sq = space_sq + (da * h) ** 2
    denom = np.sqrt(space_sq) ** spec.alpha + dt_term

    nb, one_row = len(x), policy == "exhaustive" and len(shape) == 1
    if policy == "dyadic":
        ends = [(x[sa], x[sb]) for sa, sb in st.slices]
    elif one_row:  # the one row of a one-axis lattice, its base nodes p leading
        ends = [(x[:, :, None], np.broadcast_to(x[:, None], x.shape[:2] + x.shape[1:]))]
    else:  # term o: every node of row r against every node of row r + o
        n0, m = st.rows
        x = x.reshape(nb, n0, m, *x.shape[1 + len(shape) :])
        ends = [(x[:, : n0 - o, :, None], x[:, o:, None, :]) for o in range(n0)]
        tab, low = denom.reshape(n0, m), np.tri(m, dtype=bool)
    vmax, kmax = np.full((len(ends), nb), -1.0), np.zeros((len(ends), nb), dtype=np.intp)
    buf = np.empty(0)
    for i, (a, b) in enumerate(ends):
        if policy == "dyadic":
            den = denom[i]
        elif one_row:  # denominators of the pairs (p, q), window[n - 1 + q - p]: inf at q <= p
            window, s = np.concatenate((np.full(n_pts, np.inf), denom[1:])), denom.itemsize
            den = np.ndarray((n_pts, n_pts), float, window, (n_pts - 1) * s, (-s, s))  # a view
        else:  # denominators of the pairs (p, q) of every row; drop qa >= qb of row r with itself
            den = np.where(low, np.inf, tab[0][st.didx]) if i == 0 else tab[i][st.didx]
        row = nb * math.prod(np.broadcast_shapes(a.shape, b.shape)[2:])  # every batch entry
        rows = min(a.shape[1], max(1, _BLOCK // row))  # the rows of a block
        buf = buf if buf.size >= row * rows else np.empty(row * rows)
        for lo in range(0, a.shape[1] - one_row, rows):  # one-axis: node n - 1 has no q > p
            # a one-axis row's block [lo, lo + rows) keeps its pairs (p, q) with q > lo
            rs, q0 = slice(lo, lo + rows), lo + 1 if one_row else 0
            q = _difference_moment(a[:, rs], b[:, rs, q0:], buf, spec.gamma, n_modes > 0)
            q /= den[rs, q0:] if one_row else den
            k = q.reshape(nb, -1).argmax(axis=1)
            v = q.reshape(nb, -1)[np.arange(nb), k]
            new = (v > vmax[i]) | np.isnan(v)  # strict: the earliest maximum stays
            k, w = k[new], math.prod(q.shape[2:])  # the block holds (rows, w) pairs from (lo, q0)
            if one_row:  # rows of w = n - q0 pairs: to the flat index p n + q
                k = k + q0 * (np.divmod(k, w)[0] + lo + 1)
            vmax[i, new], kmax[i, new] = v[new], k + lo * w
    best = vmax.max(initial=0.0)
    if not math.isfinite(best):
        raise ValueError("field values must be finite")
    if best == 0.0:
        return st, 0.0, 0, ()
    j = int(np.argmax((vmax == best).any(axis=0)))
    ties = np.flatnonzero(vmax[:, j] == best)
    # dyadic order is the tie order; exhaustive terms interleave in triu order
    ties = ties[:1] if policy == "dyadic" else ties
    return st, float(best), j, min(st.pair(i, kmax[i, j]) for i in ties)


def _grid_geometry(grid, with_time):
    """(shape, spacings, periodic) of the node lattice, time axis first."""
    axes = [(grid.steps + 1, grid.dt, False)] if with_time else []
    axes.append((grid.n_x1, grid.dx1, grid.periodic_x1))
    if grid.dim == 2:
        axes.append((grid.n_xp, grid.dxp, True))
    return tuple(zip(*axes))


def _sup_update(best, x, f, spec, geometry):
    # x: (levels, *space, paths[, modes]), read a block of levels at a time
    prof, has_modes = np.empty(x.shape[: x.ndim - 1 - (f.n_modes > 0)]), f.n_modes > 0
    rows = max(1, _BLOCK // math.prod(x.shape[1:]))
    for lo in range(0, len(x), rows):
        prof[lo : lo + rows] = _moment(x[lo : lo + rows], spec.gamma, has_modes, _ordered_path_sum)
    k = int(np.argmax(prof))
    return float(prof.ravel()[k]), tuple(map(int, np.unravel_index(k, prof.shape)))


def _space_update(best, x, f, spec, geometry):
    st, v, j, arg = _stencil_max(x, f.n_modes, *geometry, None, spec)
    best.kind = f"space_seminorm[{spec.pair_policy}]"
    best.pairs = st.pairs * (f.grid.steps + 1)
    return v, (j,) + arg


def _parabolic_update(best, x, f, spec, geometry):
    time = (f.grid.steps + 1, f.grid.dt, False)
    shape, spacings, periodic = ((t,) + axes for t, axes in zip(time, geometry))
    x = np.broadcast_to(x, shape[:1] + x.shape[1:])[None]  # time-constant data: its one level
    st, v, _, arg = _stencil_max(x, f.n_modes, shape, spacings, periodic, 0, spec)
    best.kind = f"parabolic_seminorm[{spec.pair_policy}]"
    best.pairs = st.pairs
    return v, arg


_UPDATES = {
    "sup": _sup_update,
    "space_seminorm": _space_update,
    "parabolic_seminorm": _parabolic_update,
}


def _wrap(x, pad):
    """Fill the pads of x's space axes from the far side, as ``np.pad(mode="wrap")``."""
    for axis, (lo, hi) in enumerate(pad, 1):
        n = x.shape[axis] - lo - hi
        x[_along(axis, slice(0, lo))] = x[_along(axis, slice(n, n + lo))]
        x[_along(axis, slice(lo + n, None))] = x[_along(axis, slice(lo, lo + hi))]


def _norms(f, spec, m, *kinds, wall=False):
    """NormResults of the given kinds from one pass that forms each
    derivative of f once, into one buffer in the engine's layout: "sup"
    takes |beta| <= m, the seminorms |beta| = m.  wall: of f's wall trace,
    on the lattice of time and the tangential axis (m = 0)."""
    out = {k: NormResult(k, -1.0 if k == "sup" else 0.0, m, spec.alpha, spec.gamma) for k in kinds}
    values, geometry = _one_level(f.values), _grid_geometry(f.grid, False)
    if wall:  # the trace drops the x1 axis
        values, geometry = values[:, :, f.grid.wall_index], tuple(a[1:] for a in geometry)
    space, _, periodic = geometry
    # the seminorms read the pads; a parabolic stencil pads space as the space stencil does
    semi = kinds != ("sup",) and len(space) > 0
    pad = _stencil(space, periodic, None, spec.pair_policy).pad if semi else [(0, 0)] * len(space)
    # x: (levels, *space padded, paths[, modes]); dst: its unpadded nodes, paths first
    padded = tuple(n + lo + hi for n, (lo, hi) in zip(space, pad))
    x = np.empty(values.shape[1:2] + padded + values.shape[:1] + values.shape[2 + len(space) :])
    inner = x[(slice(None),) + tuple(slice(lo, lo + n) for n, (lo, _) in zip(space, pad))]
    dst = np.moveaxis(inner, 1 + len(space), 0)
    for order in range(0 if "sup" in kinds else m, m + 1):
        for beta in _multi_indices(f.grid.dim, order):
            finite_diff(f, beta, dst) if order else np.copyto(dst, values)
            # a derivative far from 1 goes to [1/2, 1), its norms back after; nan and inf keep e = 0
            mag = max(inner.max(), -inner.min())
            e = 0 if 2.0**-400 <= mag <= 2.0**400 else math.frexp(mag)[1]
            if e:
                np.ldexp(inner, -e, out=inner)
            if order == m:  # the seminorms read the pads
                _wrap(x, pad)
            for k, best in out.items():
                if order == m or k == "sup":
                    v, arg = _UPDATES[k](best, inner if k == "sup" else x, f, spec, geometry)
                    v = math.ldexp(v, e)
                    if v > best.value:  # strict, so the earliest beta stays
                        best.value, best.beta, best.argmax = v, beta, arg
    return list(out.values())


def sup_norm(f: FieldEnsemble, spec: NormSpec, m: int = 0) -> NormResult:
    """max over |beta| <= m and grid nodes of the moment magnitude."""
    return _norms(f, spec, m, "sup")[0]


def space_seminorm(f: FieldEnsemble, spec: NormSpec, m: int = 0) -> NormResult:
    """max over |beta| = m, times, and node pairs of the space quotient."""
    return _norms(f, spec, m, "space_seminorm")[0]


def parabolic_seminorm(f: FieldEnsemble, spec: NormSpec, m: int = 0) -> NormResult:
    """max over |beta| = m of the space-time quotient seminorm.

    Denominator |x - y|^alpha + |t - s|^{alpha/2} over all stencil
    space-time node pairs.
    """
    return _norms(f, spec, m, "parabolic_seminorm")[0]


def trace_parabolic_norm(f: FieldEnsemble, spec: NormSpec) -> tuple:
    """Composite parabolic norm of the wall trace: sup + seminorm.

    On a dim-1 grid the trace lives on a single spatial point and the
    seminorm reduces to the pure time quotient.
    """
    sup, semi = _norms(f, spec, 0, "sup", "parabolic_seminorm", wall=True)
    semi.kind, semi.beta = f"trace_parabolic[{spec.pair_policy}]", ()
    return sup.value, semi


@dataclass
class SchauderReport:
    lhs: float
    rhs: float
    ratio: float
    sentinel: str = ""
    results: list = field(default_factory=list)


def schauder_ratio(u, f, g, spec: NormSpec) -> SchauderReport:
    """Ratio of the solution norm to the data norm.

    lhs: sup norm of u through second derivatives plus the parabolic
    seminorm of the second derivatives.  rhs: Hölder norm of f in space,
    parabolic norm of the wall trace of f, and the order-one norm of g
    (ell2 over modes inside the moment).  A vanishing rhs yields a nan
    ratio and a sentinel: 0/0 if lhs vanishes too, x/0 otherwise.
    """
    lhs_sup, lhs_semi = _norms(u, spec, 2, "sup", "parabolic_seminorm")
    lhs = lhs_sup.value + lhs_semi.value

    f_sup, f_space = _norms(f, spec, 0, "sup", "space_seminorm")
    f_trace_sup, f_trace_semi = trace_parabolic_norm(f, spec)
    rhs = f_sup.value + f_space.value + f_trace_sup + f_trace_semi.value
    results = [lhs_sup, lhs_semi, f_sup, f_space, f_trace_semi]
    if g is not None:
        g_sup, g_space = _norms(g, spec, 1, "sup", "space_seminorm")
        rhs += g_sup.value + g_space.value
        results += [g_sup, g_space]

    if rhs == 0.0:
        sentinel = "0/0" if lhs == 0.0 else "x/0"
        return SchauderReport(lhs, rhs, math.nan, sentinel=sentinel, results=results)
    return SchauderReport(lhs, rhs, lhs / rhs, results=results)

