"""Space-time grids and path-ensemble fields on the truncated half-space.

The computational domain is x1 in [0, x1_max] (node x1 = 0 always on the
grid, Dirichlet wall) with an optional periodic tangential direction x'
of period xp_max, and times 0 = t_0 < ... < t_steps = T.  A field
ensemble stores one value per (path, time node, space node), path-major,
so a single path's trajectory is contiguous in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "SpaceTimeGrid",
    "FieldEnsemble",
    "GridMismatch",
    "finite_diff",
]


# values per block of the blocked loops here and in norms: 2^19 bytes of float64
_BLOCK = 2**16


def _ordered_path_sum(values):
    """Sum over the trailing paths axis in path order, ((x0 + x1) + x2) + ...: the
    ``np.add.reduce(x, axis=0)`` of ``np.mean(axis=0)`` over the path-major x of
    more than one node, bit for bit (numpy sums a trailing axis pairwise).  One
    accumulate call below 256 rows, n - 1 strided adds from there: measured, the
    adds win from 16 to 512 rows as n goes from 2 to 64 paths."""
    n = values.shape[-1]
    if values.size < 256 * n:
        return np.add.accumulate(values, axis=-1)[..., -1]
    s = values[..., 0].copy()
    for k in range(1, n):
        s += values[..., k]
    return s


def _pairwise_path_sum(d):
    """``np.add.reduce(d, axis=-1)`` of a float64 array, bit for bit: the sum
    ``np.mean(axis=-1)`` takes over a trailing paths axis.

    numpy sums each row pairwise: fewer than 8 values in turn; 8 to 128
    values into eight strided accumulators r0..r7, joined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in
    turn.  Below 16 paths the same adds over whole arrays skip numpy's
    per-row call, which costs more than the row; from 16 on numpy's own
    loop is faster, so it sums those.
    """
    n = d.shape[-1]
    if n >= 16:
        return np.add.reduce(d, axis=-1)
    if n < 8:  # one value is its own sum, returned as a view of d
        s, rest = (d[..., 0] if n == 1 else d[..., 0].copy()), range(1, n)
    else:
        r = d[..., 0:8:2] + d[..., 1:8:2]
        r = r[..., 0::2] + r[..., 1::2]
        s, rest = r[..., 0] + r[..., 1], range(8, n)
    for i in rest:
        s += d[..., i]
    return s


def _integer(name, value):
    """value, if it is a Python or numpy integer; a bool or a float is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class GridMismatch(ValueError):
    """Two objects live on incompatible grids."""


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform tensor grid on [0, x1_max] x (periodic x') x [0, T].

    dim is the number of space dimensions (1 or 2).  x1 is the normal
    direction; for dim == 2 the tangential direction is periodic with
    xp_cells distinct nodes (no duplicated endpoint).  periodic_x1
    switches the normal direction to a whole-line surrogate with
    x1_cells distinct nodes and no Dirichlet wall; it exists for mode
    oracles, not for boundary studies.
    """

    dim: int
    x1_max: float
    x1_cells: int
    t_max: float
    steps: int
    xp_max: float = 0.0
    xp_cells: int = 0
    periodic_x1: bool = False

    def __post_init__(self):
        for name in ("dim", "x1_cells", "steps", "xp_cells"):
            _integer(name, getattr(self, name))
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        lengths = (("x1_max", self.x1_max), ("t_max", self.t_max), ("xp_max", self.xp_max))
        for name, x in lengths[: 2 + (self.dim == 2)]:
            if not 0 < x < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {x}")
        if self.x1_cells < 2 or self.steps < 1:
            raise ValueError("need x1_cells >= 2 and steps >= 1")
        if self.dim == 2 and self.xp_cells < 4:
            raise ValueError("dim == 2 needs xp_cells >= 4")
        if self.dim == 1 and (self.xp_max or self.xp_cells):  # refine() would double them
            raise ValueError(f"dim == 1 takes no xp_max/xp_cells, got {self.xp_max, self.xp_cells}")

    # -- spacings -----------------------------------------------------
    @property
    def dx1(self) -> float:
        return self.x1_max / self.x1_cells

    @property
    def dxp(self) -> float:
        return self.xp_max / self.xp_cells if self.dim == 2 else 0.0

    @property
    def dt(self) -> float:
        return self.t_max / self.steps

    # -- node arrays --------------------------------------------------
    @property
    def n_x1(self) -> int:
        # periodic: distinct nodes only; wall grids include both ends
        return self.x1_cells if self.periodic_x1 else self.x1_cells + 1

    @property
    def n_xp(self) -> int:
        return self.xp_cells if self.dim == 2 else 0

    @property
    def x1_nodes(self) -> np.ndarray:
        return self.dx1 * np.arange(self.n_x1)

    @property
    def xp_nodes(self) -> np.ndarray:
        return self.dxp * np.arange(self.xp_cells) if self.dim == 2 else np.zeros(0)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)

    @property
    def space_shape(self) -> tuple:
        return (self.n_x1,) if self.dim == 1 else (self.n_x1, self.n_xp)

    @property
    def wall_index(self) -> int:
        """Index of the x1 = 0 node."""
        if self.periodic_x1:
            raise GridMismatch("periodic_x1 grid has no wall")
        return 0

    def refine(self, xp=True) -> "SpaceTimeGrid":
        """The next level: half the x1 spacing (and the x' spacing if xp)
        and a quarter of the time step."""
        xp_cells = 2 * self.xp_cells if xp else self.xp_cells
        return replace(self, x1_cells=2 * self.x1_cells, xp_cells=xp_cells, steps=4 * self.steps)


@dataclass
class FieldEnsemble:
    """Values of shape (paths, steps+1, *space_shape[, modes]).

    n_modes == 0 means a plain scalar field; n_modes >= 1 appends a
    trailing mode axis (noise forcings g^k live there).  Deterministic
    data uses a single path; consumers broadcast over the path axis.
    """

    values: np.ndarray
    grid: SpaceTimeGrid
    n_modes: int = 0

    def __post_init__(self):
        expect = (self.grid.steps + 1,) + self.grid.space_shape
        if self.n_modes:
            expect = expect + (self.n_modes,)
        if self.values.ndim != 1 + len(expect) or self.values.shape[1:] != expect:
            raise GridMismatch(
                f"value shape {self.values.shape} does not match (paths,)+{expect}"
            )

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def _along(axis, i):
    """Index tuple that takes i on axis and every node of the axes before it."""
    return (slice(None),) * axis + (i,)


def _closure(rows, order, h):
    """One-sided second-order difference at the end row rows[0].

    rows[k] is the row k nodes in from the end.  The x1 = 0 rows of the
    stencils below and of the pipeline's wall terms all come from here.
    """
    if order == 1:
        return (-3 * rows[0] + 4 * rows[1] - rows[2]) / (2 * h)
    return (2 * rows[0] - 5 * rows[1] + 4 * rows[2] - rows[3]) / (h * h)


def _centred(values, h, axis, order, out=None):
    """Centred difference of the given order at every node but the two ends of
    axis, into out if given: (nxt - prev) / (2 h) or (nxt - 2 mid + prev) / h^2."""
    nxt, prev = values[_along(axis, slice(2, None))], values[_along(axis, slice(0, -2))]
    if order == 1:
        d = np.subtract(nxt, prev, out=out)
    else:  # one array, allocated here if out is None, takes every step
        d = np.multiply(values[_along(axis, slice(1, -1))], 2, out=out)
        np.add(np.subtract(nxt, d, out=d), prev, out=d)
    return np.divide(d, 2 * h if order == 1 else h * h, out=d)


def _diff(values, h, axis, periodic, order):
    """Difference of order 1 or 2 along axis: centred, and at the two ends
    wrapped (periodic) or closed one-sided."""
    if periodic:
        # one ghost node from the far side at each end makes every node centred
        ghosts = values[_along(axis, slice(-1, None))], values, values[_along(axis, slice(0, 1))]
        return _centred(np.concatenate(ghosts, axis), h, axis, order)
    if values.shape[axis] < order + 2:
        raise GridMismatch(f"derivative of order {order} needs >= {order + 2} nodes along the axis")
    rows = np.moveaxis(values, axis, 0)
    out = np.empty_like(values)
    _centred(values, h, axis, order, out[_along(axis, slice(1, -1))])
    out[_along(axis, 0)] = _closure(rows, order, h)
    if order == 1:
        out[_along(axis, -1)] = (3 * rows[-1] - 4 * rows[-2] + rows[-3]) / (2 * h)
    else:
        out[_along(axis, -1)] = _closure(rows[::-1], order, h)
    return out


def finite_diff(f: FieldEnsemble, beta, out=None) -> FieldEnsemble:
    """Spatial derivative D^beta of a field, second-order stencils.

    beta is a multi-index over the space axes, |beta| <= 2.  Interior
    nodes use centered differences; the x1 wall nodes use one-sided
    second-order closures so the stencil never leaves the closed
    half-space; the tangential direction wraps periodically.  Mixed
    derivatives compose the one-dimensional operators (normal first,
    then tangential, matching centered-tangential-of-one-sided-normal
    at near-wall nodes), a block of time levels at a time.  Time-constant
    data (a zero time stride) is differenced on one time level and stays
    a broadcast view.  out, if given, takes the values of that one level
    or of every level, and may be a strided view.
    """
    beta = tuple(int(k) for k in beta)
    if len(beta) != f.grid.dim:
        raise ValueError(f"beta {beta} has wrong length for dim {f.grid.dim}")
    if any(k < 0 for k in beta) or sum(beta) > 2:
        raise ValueError(f"multi-index {beta} outside |beta| <= 2")
    values, g = _one_level(f.values), f.grid
    out = np.empty(values.shape) if out is None else out
    rows = max(1, _BLOCK // values[:, :1].size)
    for lo in range(0, values.shape[1], rows):
        v = values[:, lo : lo + rows]
        for d, k in enumerate(beta):  # x1 is axis 2 of the values, x' axis 3
            if k:
                h, per = (g.dx1, g.periodic_x1) if d == 0 else (g.dxp, True)
                v = _diff(v, h, 2 + d, per, k)
        out[:, lo : lo + rows] = v  # one copy: ufuncs writing a strided out ran slower
    if out.shape != f.values.shape:  # one level of time-constant data
        out = np.broadcast_to(out, f.values.shape)
    return FieldEnsemble(out, f.grid, f.n_modes)


def _one_level(values):
    """values, or their first time level (C-contiguous) if the time stride is
    0: time-constant data, which broadcasts one level over every time node."""
    return np.ascontiguousarray(values[:, :1]) if values.strides[1] == 0 else values
