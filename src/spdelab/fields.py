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


def _axis_spacing(grid: SpaceTimeGrid, axis_dim: int) -> float:
    return grid.dx1 if axis_dim == 0 else grid.dxp


def _axis_periodic(grid: SpaceTimeGrid, axis_dim: int) -> bool:
    return grid.periodic_x1 if axis_dim == 0 else True


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


def _centred(values, h, axis, order):
    """Centred difference of the given order at every node but the two ends of axis."""
    nxt, prev = values[_along(axis, slice(2, None))], values[_along(axis, slice(0, -2))]
    if order == 1:
        return (nxt - prev) / (2 * h)
    return (nxt - 2 * values[_along(axis, slice(1, -1))] + prev) / (h * h)


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
    out[_along(axis, slice(1, -1))] = _centred(values, h, axis, order)
    out[_along(axis, 0)] = _closure(rows, order, h)
    if order == 1:
        out[_along(axis, -1)] = (3 * rows[-1] - 4 * rows[-2] + rows[-3]) / (2 * h)
    else:
        out[_along(axis, -1)] = _closure(rows[::-1], order, h)
    return out


def finite_diff(f: FieldEnsemble, beta) -> FieldEnsemble:
    """Spatial derivative D^beta of a field, second-order stencils.

    beta is a multi-index over the space axes, |beta| <= 2.  Interior
    nodes use centered differences; the x1 wall nodes use one-sided
    second-order closures so the stencil never leaves the closed
    half-space; the tangential direction wraps periodically.  Mixed
    derivatives compose the one-dimensional operators (normal first,
    then tangential, matching centered-tangential-of-one-sided-normal
    at near-wall nodes).  Time-constant data (a zero time stride) is
    differenced on one time level and stays a broadcast view.
    """
    beta = tuple(int(k) for k in beta)
    if len(beta) != f.grid.dim:
        raise ValueError(f"beta {beta} has wrong length for dim {f.grid.dim}")
    if any(k < 0 for k in beta) or sum(beta) > 2:
        raise ValueError(f"multi-index {beta} outside |beta| <= 2")
    out = _one_level(f.values)
    for d, order in enumerate(beta):
        if order:
            out = _diff(out, _axis_spacing(f.grid, d), 2 + d, _axis_periodic(f.grid, d), order)
    if out.shape != f.values.shape:  # one level of time-constant data
        out = np.broadcast_to(out, f.values.shape)
    return FieldEnsemble(out, f.grid, f.n_modes)


def _one_level(values):
    """values, or their first time level (C-contiguous) if the time stride is
    0: time-constant data, which broadcasts one level over every time node."""
    return np.ascontiguousarray(values[:, :1]) if values.strides[1] == 0 else values
