"""Grids, difference stencils and wall traces."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdelab import (
    FieldEnsemble,
    GridMismatch,
    SpaceTimeGrid,
    finite_diff,
)
from spdelab import fields
from spdelab.fields import _along, _centred, _diff


def grid1(cells=8, steps=4, x1_max=2.0, t_max=1.0):
    return SpaceTimeGrid(dim=1, x1_max=x1_max, x1_cells=cells, t_max=t_max, steps=steps)


def grid2(cells=8, steps=4):
    return SpaceTimeGrid(
        dim=2, x1_max=2.0, x1_cells=cells, t_max=1.0, steps=steps, xp_max=1.0, xp_cells=8
    )


def field_of(grid, fn, n_modes=0, paths=1):
    """Sample fn(x1) or fn(x1, xp) onto a constant-in-time ensemble."""
    if grid.dim == 1:
        vals = fn(grid.x1_nodes)
    else:
        vals = fn(grid.x1_nodes[:, None], grid.xp_nodes[None, :])
    shape = (paths, grid.steps + 1) + grid.space_shape
    if n_modes:
        shape = shape + (n_modes,)
        vals = vals[..., None]
    return FieldEnsemble(np.broadcast_to(vals, shape).copy(), grid, n_modes)


# -- grid geometry ----------------------------------------------------


def test_grid_spacings_and_node_counts():
    g = grid1(cells=10, steps=5, x1_max=2.5, t_max=1.0)
    assert g.dx1 == pytest.approx(0.25)
    assert g.dt == pytest.approx(0.2)
    assert g.n_x1 == 11
    assert g.wall_index == 0
    assert g.x1_nodes[0] == 0.0
    assert g.x1_nodes[-1] == pytest.approx(2.5)
    assert g.times.shape == (6,)
    assert g.times[-1] == pytest.approx(1.0)


def test_grid_refine_scales_both_axes():
    g = grid2(cells=8, steps=4)
    r = g.refine()
    assert (r.x1_cells, r.xp_cells, r.steps) == (16, 16, 16)
    assert r.dx1 == pytest.approx(g.dx1 / 2)
    assert r.dt == pytest.approx(g.dt / 4)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpaceTimeGrid(dim=3, x1_max=1.0, x1_cells=4, t_max=1.0, steps=2)
    with pytest.raises(ValueError):
        SpaceTimeGrid(dim=2, x1_max=1.0, x1_cells=4, t_max=1.0, steps=2)  # no xp block
    with pytest.raises(ValueError):
        SpaceTimeGrid(dim=1, x1_max=0.0, x1_cells=4, t_max=1.0, steps=2)


@pytest.mark.parametrize("dim", [True, 1.0, 2.0])
def test_grid_refuses_a_dim_that_is_not_an_integer(dim):
    # True and 1.0 once passed as dim 1 and stayed in the grid
    with pytest.raises(ValueError, match=f"dim must be an integer, got {dim!r}"):
        SpaceTimeGrid(dim=dim, x1_max=1.0, x1_cells=4, t_max=1.0, steps=2, xp_max=1.0, xp_cells=4)


@pytest.mark.parametrize("xp", [{"xp_cells": 8}, {"xp_max": 1.0}, {"xp_max": np.nan}])
def test_a_dim_1_grid_takes_no_tangential_values(xp):
    # refine() once doubled a kept xp_cells, and the refined grid compared
    # unequal to the same grid without it
    with pytest.raises(ValueError, match="dim == 1 takes no xp_max/xp_cells"):
        SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=4, t_max=1.0, steps=2, **xp)


@pytest.mark.parametrize("name", ["x1_max", "t_max", "xp_max"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_grid_refuses_a_length_that_is_not_positive_and_finite(name, value):
    # x1_max = nan once stepped to a BlowUpError, and x1_max = inf to dx1 = inf
    lengths = {"x1_max": 1.0, "t_max": 1.0, "xp_max": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be positive and finite, got {value}"):
        SpaceTimeGrid(dim=2, x1_cells=4, steps=2, xp_cells=4, **lengths)
    if name != "xp_max":
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SpaceTimeGrid(dim=1, x1_cells=4, steps=2, **dict(lengths, xp_max=0.0))


@pytest.mark.parametrize("name", ["x1_cells", "steps", "xp_cells"])
@pytest.mark.parametrize("value", [2.5, 4.0, True])
def test_grid_refuses_a_count_that_is_not_an_integer(name, value):
    # x1_cells = 2.5 once gave space_shape (3.5,), and steps = 2.5 times past t_max
    counts = {"x1_cells": 4, "steps": 2, "xp_cells": 4, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        SpaceTimeGrid(dim=2, x1_max=1.0, t_max=1.0, xp_max=1.0, **counts)
    counts = {k: np.int64(v) for k, v in dict(counts, **{name: 4}).items()}  # numpy ints pass
    assert SpaceTimeGrid(dim=2, x1_max=1.0, t_max=1.0, xp_max=1.0, **counts).space_shape == (5, 4)


def test_periodic_grid_has_no_wall():
    g = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=8, t_max=1.0, steps=2, periodic_x1=True)
    assert g.n_x1 == 8  # distinct nodes only
    with pytest.raises(GridMismatch):
        g.wall_index


def test_field_shape_is_validated():
    g = grid1()
    with pytest.raises(GridMismatch):
        FieldEnsemble(np.zeros((2, g.steps + 1, g.n_x1 - 1)), g)
    with pytest.raises(GridMismatch):
        FieldEnsemble(np.zeros((2, g.steps + 1, g.n_x1)), g, n_modes=3)


# -- finite differences -----------------------------------------------


def test_first_derivative_exact_on_linear():
    g = grid1(cells=9)
    f = field_of(g, lambda x: 0.75 * x - 2.0)
    d = finite_diff(f, (1,))
    # second-order closures are exact on affine data, walls included
    assert np.allclose(d.values, 0.75, atol=1e-13)


def test_second_derivative_exact_on_quadratic():
    g = grid1(cells=9)
    f = field_of(g, lambda x: 3.0 * x * x - x + 1.0)
    d2 = finite_diff(f, (2,))
    assert np.allclose(d2.values, 6.0, atol=1e-11)
    d1 = finite_diff(f, (1,))
    expect = 6.0 * g.x1_nodes - 1.0
    assert np.allclose(d1.values, expect[None, None, :], atol=1e-11)


@given(
    cells=st.integers(3, 24),
    x1_max=st.floats(0.1, 10.0),
    coef=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
)
def test_finite_diff_exact_on_random_quadratics(cells, x1_max, coef):
    # centred interior stencils and the one-sided wall closures alike
    # reproduce the derivatives of a quadratic up to rounding
    c2, c1, c0 = coef
    g = grid1(cells=cells, x1_max=x1_max)
    x = g.x1_nodes
    f = field_of(g, lambda y: (c2 * y + c1) * y + c0, paths=2)
    scale = 64 * np.finfo(float).eps * (np.max(np.abs(f.values)) + 1.0)
    d1 = finite_diff(f, (1,)).values
    d2 = finite_diff(f, (2,)).values
    assert np.all(np.abs(d1 - (2.0 * c2 * x + c1)) <= scale / g.dx1)
    assert np.all(np.abs(d2 - 2.0 * c2) <= scale / g.dx1**2)


def test_second_derivative_converges_on_sine():
    errs = []
    for cells in (16, 32):
        g = grid1(cells=cells, x1_max=np.pi)
        f = field_of(g, np.sin)
        d2 = finite_diff(f, (2,))
        errs.append(float(np.max(np.abs(d2.values + np.sin(g.x1_nodes)))))
    assert errs[1] < errs[0] / 3.0  # near fourfold drop for a second-order stencil


def test_tangential_derivative_wraps_periodically():
    g = grid2()
    k = 2.0 * np.pi / g.xp_max
    f = field_of(g, lambda x1, xp: np.cos(k * xp) + 0.0 * x1)
    d = finite_diff(f, (0, 1))
    # discrete symbol of the centered stencil on a pure mode
    expect = -k * np.sin(k * g.xp_nodes) * np.sinc(k * g.dxp / np.pi)
    assert np.allclose(d.values[0, 0, 0], expect, atol=1e-12)


def test_mixed_derivative_on_product_field():
    g = grid2(cells=12)
    f = field_of(g, lambda x1, xp: x1 * np.sin(2.0 * np.pi * xp))
    d11 = finite_diff(f, (1, 1))
    k = 2.0 * np.pi
    expect = np.cos(k * g.xp_nodes) * k * np.sinc(k * g.dxp / np.pi)
    # x1-linear factor differentiates exactly; tangential keeps its symbol
    assert np.allclose(d11.values[0, 0, 3], expect, atol=1e-10)


def test_zero_multi_index_is_identity():
    g = grid1()
    f = field_of(g, lambda x: x**2)
    same = finite_diff(f, (0,))
    assert np.array_equal(same.values, f.values)


def test_multi_index_validation():
    g = grid2()
    f = field_of(g, lambda x1, xp: x1)
    with pytest.raises(ValueError):
        finite_diff(f, (1,))  # wrong length
    with pytest.raises(ValueError):
        finite_diff(f, (2, 1))  # order 3


@given(data=st.data())
def test_finite_diff_is_linear_to_the_bit(data):
    # integer-valued data on power-of-two spacings keeps every stencil
    # operation exact, so D(c u + v) and c Du + Dv must agree with zero
    # tolerance, for every |beta| <= 2 on 1-D, periodic and 2-D grids
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    cells = data.draw(st.integers(3, 12), label="cells")
    kw = {"periodic_x1": data.draw(st.booleans(), label="periodic")} if dim == 1 else {}
    if dim == 2:
        xp_cells = data.draw(st.integers(4, 8), label="xp_cells")
        kw = {"xp_cells": xp_cells, "xp_max": xp_cells * 2.0 ** data.draw(st.integers(-4, 3))}
    g = SpaceTimeGrid(
        dim=dim,
        x1_max=cells * 2.0 ** data.draw(st.integers(-4, 3), label="log2 dx1"),
        x1_cells=cells,
        t_max=1.0,
        steps=data.draw(st.integers(1, 4), label="steps"),
        **kw,
    )
    betas = [b for b in itertools.product(range(3), repeat=dim) if sum(b) <= 2]
    beta = data.draw(st.sampled_from(betas), label="beta")
    c = data.draw(st.integers(-4, 4), label="c")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shape = (2, g.steps + 1) + g.space_shape
    u, v = (FieldEnsemble(rng.integers(-8, 8, shape).astype(float), g) for _ in range(2))
    lhs = finite_diff(FieldEnsemble(c * u.values + v.values, g), beta).values
    rhs = c * finite_diff(u, beta).values + finite_diff(v, beta).values
    assert np.array_equal(lhs, rhs)


def rolled(values, h, axis, order):
    """The periodic stencils written with two np.roll copies: the reference."""
    nxt, prev = np.roll(values, -1, axis), np.roll(values, 1, axis)
    if order == 1:
        return (nxt - prev) / (2 * h)
    return (nxt - 2 * values + prev) / (h * h)


@given(data=st.data())
def test_periodic_stencils_match_the_rolled_reference_to_the_bit(data):
    # the wrap axis sits where callers put it: 1 on a wall row, 2 on a
    # state, 3 on a field ensemble; a mode axis may trail it
    axis = data.draw(st.integers(1, 3), label="axis")
    modes = data.draw(st.integers(0, 3), label="modes")
    shape = [data.draw(st.integers(1, 4)) for _ in range(axis)]
    shape += [data.draw(st.integers(3, 10), label="wrap nodes")] + ([modes] if modes else [])
    h = data.draw(st.floats(1e-3, 10.0), label="h")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = rng.standard_normal(shape)
    for order in (1, 2):
        assert np.array_equal(_diff(values, h, axis, True, order), rolled(values, h, axis, order))


def bits(a):
    """The float64 bit patterns of a: equal bits, not merely equal values."""
    return np.ascontiguousarray(a).view(np.int64)


def paths_last(shape, pad=2):
    """A NaN-filled (levels, x1[, x'], paths) buffer, its last grid axis padded
    at both ends, and the path-major view of its unpadded nodes."""
    paths, levels, *space = shape
    buf = np.full((levels, *space[:-1], space[-1] + 2 * pad, paths), np.nan)
    return buf, np.moveaxis(buf[..., pad : pad + space[-1], :], -1, 0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("periodic", [False, True])
def test_differences_into_a_strided_out_match_the_allocating_form_to_the_bit(dim, order, periodic):
    # values over forty binades; out is a strided view that leaves its pads alone
    rng = np.random.default_rng(4 * dim + order)
    shape = (3, 4, 7) if dim == 1 else (3, 4, 7, 6)
    values = np.ldexp(rng.standard_normal(shape), rng.integers(-20, 21, shape))
    h = 0.3
    for axis in range(2, len(shape)):
        n = values.shape[axis]
        nxt, mid, prev = (values[_along(axis, slice(a, n - 2 + a))] for a in (2, 1, 0))
        # the centred stencils as the whole-array expressions they replace
        ref = (nxt - prev) / (2 * h) if order == 1 else (nxt - 2 * mid + prev) / (h * h)
        buf, out = paths_last(ref.shape)
        assert not out.flags.c_contiguous
        assert _centred(values, h, axis, order, out) is out
        assert np.array_equal(bits(out), bits(ref))
        assert np.isnan(buf[..., :2, :]).all() and np.isnan(buf[..., -2:, :]).all()
        assert np.array_equal(bits(_centred(values, h, axis, order)), bits(ref))
        full = _diff(values, h, axis, periodic, order)
        if periodic:
            assert np.array_equal(bits(full), bits(rolled(values, h, axis, order)))
        else:  # the centred nodes are written in place, the two ends by the closures
            assert np.array_equal(bits(full[_along(axis, slice(1, -1))]), bits(ref))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("constant", [False, True])
def test_finite_diff_into_out_matches_the_allocating_form_to_the_bit(monkeypatch, dim, constant):
    # 60 values a block: several blocks of time levels, the last one partial
    monkeypatch.setattr(fields, "_BLOCK", 60)
    g = grid1(cells=6, steps=6) if dim == 1 else grid2(cells=4, steps=6)
    rng = np.random.default_rng(dim)
    shape = (2, g.steps + 1) + g.space_shape
    values = np.ldexp(rng.standard_normal(shape), rng.integers(-20, 21, shape))
    if constant:  # time-constant data: out takes its one level
        values = np.broadcast_to(values[:, :1], shape)
    f = FieldEnsemble(values, g)
    for beta in (b for b in itertools.product(range(3), repeat=dim) if sum(b) <= 2):
        buf, out = paths_last((2, 1 if constant else g.steps + 1) + g.space_shape)
        got = finite_diff(f, beta, out)
        assert np.shares_memory(got.values, buf) and got.values.shape == shape
        assert np.array_equal(bits(got.values), bits(finite_diff(f, beta).values))
        assert np.isnan(buf[..., :2, :]).all() and np.isnan(buf[..., -2:, :]).all()
