"""Discrete Hölder machinery: sup norms, quotient seminorms, the ratio."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spdelab import (
    FieldEnsemble,
    NormSpec,
    SpaceTimeGrid,
    parabolic_seminorm,
    schauder_ratio,
    space_seminorm,
    sup_norm,
    trace_parabolic_norm,
)
from spdelab import norms
from spdelab.fields import finite_diff
from spdelab.norms import _dyadic_offsets, _grid_geometry, _multi_indices

SPEC = NormSpec(alpha=0.5)


def grid1(cells=8, steps=4, x1_max=1.0, t_max=1.0):
    return SpaceTimeGrid(dim=1, x1_max=x1_max, x1_cells=cells, t_max=t_max, steps=steps)


def static(grid, profile, paths=1):
    vals = np.broadcast_to(
        profile(grid.x1_nodes)[None, None, :], (paths, grid.steps + 1, grid.n_x1)
    ).copy()
    return FieldEnsemble(vals, grid)


def test_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(alpha=0.0)
    with pytest.raises(ValueError):
        NormSpec(alpha=1.0)
    with pytest.raises(ValueError):
        NormSpec(alpha=0.5, gamma=1.5)
    with pytest.raises(ValueError):
        NormSpec(alpha=0.5, pair_policy="sparse")
    with pytest.raises(ValueError):
        NormSpec(alpha=0.5, pair_policy="random")
    # the caller picks the policy; no value chooses one from the lattice size
    with pytest.raises(ValueError, match="unknown pair policy 'auto'"):
        NormSpec(alpha=0.5, pair_policy="auto")
    assert NormSpec(alpha=0.5).pair_policy == "exhaustive"


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_spec_refuses_a_non_finite_gamma(gamma):
    # gamma = inf once gave every moment the value 1.0, whatever the field
    with pytest.raises(ValueError, match="gamma must be finite"):
        NormSpec(alpha=0.5, gamma=gamma)


def test_constant_field_has_zero_seminorms():
    f = static(grid1(), lambda x: np.full_like(x, 3.5))
    assert sup_norm(f, SPEC).value == 3.5
    assert space_seminorm(f, SPEC).value == 0.0
    assert parabolic_seminorm(f, SPEC).value == 0.0


def test_sup_norm_scans_derivative_orders():
    f = static(grid1(), lambda x: x * x)
    m0 = sup_norm(f, SPEC, m=0)
    m1 = sup_norm(f, SPEC, m=1)
    assert m0.value == pytest.approx(1.0) and m0.beta == (0,)
    # D1 x^2 = 2x beats the field itself; the closure is exact here
    assert m1.value == pytest.approx(2.0, abs=1e-12) and m1.beta == (1,)


def test_linear_profile_space_seminorm():
    # quotient |x - y|^{1-alpha} peaks at the full width, here 1
    f = static(grid1(cells=10), lambda x: x)
    r = space_seminorm(f, SPEC)
    assert r.value == pytest.approx(1.0, rel=1e-12)
    assert r.kind == "space_seminorm[exhaustive]"
    assert r.pairs > 0


def test_seminorm_absolute_homogeneity():
    g = grid1(cells=6, steps=3)
    vals = np.random.default_rng(3).normal(size=(2, g.steps + 1, g.n_x1))
    f = FieldEnsemble(vals, g)
    cf = FieldEnsemble(-4.0 * vals, g)
    for fn in (space_seminorm, parabolic_seminorm):
        a = fn(f, SPEC).value
        b = fn(cf, SPEC).value
        assert b == pytest.approx(4.0 * a, rel=1e-12)


def test_parabolic_dominates_space_seminorm():
    g = grid1(cells=6, steps=3)
    vals = np.random.default_rng(9).normal(size=(1, g.steps + 1, g.n_x1))
    f = FieldEnsemble(vals, g)
    # equal-time pairs appear in both enumerations with equal denominators
    assert parabolic_seminorm(f, SPEC).value >= space_seminorm(f, SPEC).value - 1e-15


def test_dyadic_policy_is_a_lower_bound():
    g = grid1(cells=7, steps=5)
    vals = np.random.default_rng(1).normal(size=(1, g.steps + 1, g.n_x1))
    f = FieldEnsemble(vals, g)
    full = parabolic_seminorm(f, NormSpec(alpha=0.3, pair_policy="exhaustive"))
    dyad = parabolic_seminorm(f, NormSpec(alpha=0.3, pair_policy="dyadic"))
    assert dyad.kind.endswith("[dyadic]")
    assert dyad.value <= full.value + 1e-15
    assert dyad.pairs < full.pairs


def test_the_default_policy_refuses_a_lattice_past_the_exhaustive_budget():
    g = grid1(cells=100, steps=200)  # 101 x 201 = 20,301 nodes
    assert g.n_x1 * (g.steps + 1) > norms.EXHAUSTIVE_LIMIT
    f = FieldEnsemble(np.random.default_rng(5).normal(size=(1, g.steps + 1, g.n_x1)), g)
    with pytest.raises(ValueError, match="20301 nodes exceed the exhaustive budget"):
        parabolic_seminorm(f, NormSpec(alpha=0.5))
    assert parabolic_seminorm(f, NormSpec(alpha=0.5, pair_policy="dyadic")).value > 0.0


def test_parabolic_scaling_law():
    # same nodal values on a grid dilated by lambda in space and
    # lambda^2 in time divide every denominator by lambda^alpha
    lam = 2.0
    for alpha in (0.25, 0.5, 0.75):
        spec = NormSpec(alpha=alpha)
        g = grid1(cells=6, steps=4, x1_max=1.0, t_max=1.0)
        gs = grid1(cells=6, steps=4, x1_max=lam * 1.0, t_max=lam * lam * 1.0)
        vals = np.random.default_rng(7).normal(size=(1, g.steps + 1, g.n_x1))
        a = parabolic_seminorm(FieldEnsemble(vals, g), spec).value
        b = parabolic_seminorm(FieldEnsemble(vals.copy(), gs), spec).value
        assert a / b == pytest.approx(lam**alpha, rel=1e-12)


def wall_field(g, wall, paths=1):
    """A dim-1 field whose wall column is wall (paths, times); the rest is zero."""
    vals = np.zeros((paths, g.steps + 1, g.n_x1))
    vals[:, :, g.wall_index] = wall
    return FieldEnsemble(vals, g)


def test_time_seminorm_power_profile():
    # the trace seminorm of a dim-1 field is the alpha/2 time seminorm of its wall
    g = grid1(cells=4, steps=32)
    for alpha in (0.25, 0.5, 0.75):
        wall = (1.0 + alpha / 2.0) * g.times ** (alpha / 2.0)
        got = trace_parabolic_norm(wall_field(g, wall), NormSpec(alpha=alpha))[1].value
        # the quotient is maximized against s = 0 where it is exact
        assert got == pytest.approx(1.0 + alpha / 2.0, rel=1e-14)


def test_moment_seminorm_gaussian_amplitude():
    # u = xi * x with xi ~ N(0,1): the second moment restores |x - y|
    g = grid1(cells=8)
    n = 4000
    xi = np.random.default_rng(21).normal(size=(n, 1, 1))
    vals = xi * g.x1_nodes[None, None, :] * np.ones((1, g.steps + 1, 1))
    f = FieldEnsemble(vals, g)
    r = space_seminorm(f, NormSpec(alpha=0.5, gamma=2.0))
    assert r.value == pytest.approx(1.0, rel=0.05)


def test_trace_norm_reduces_to_time_quotient():
    g = grid1(cells=4, steps=8)
    wall = np.sin(2.0 * np.pi * g.times)
    sup, semi = trace_parabolic_norm(wall_field(g, wall), SPEC)
    assert sup == pytest.approx(np.max(np.abs(wall)))
    # every pair of time nodes, from a list of its own
    ja, jb = np.triu_indices(g.steps + 1, k=1)
    quotients = np.abs(wall[ja] - wall[jb]) / np.abs(g.times[ja] - g.times[jb]) ** (SPEC.alpha / 2)
    assert semi.value == pytest.approx(np.max(quotients), rel=1e-12)
    assert semi.pairs == ja.size


def test_schauder_ratio_zero_data_sentinel():
    g = grid1(cells=4, steps=2)
    z = FieldEnsemble(np.zeros((1, g.steps + 1, g.n_x1)), g)
    rep = schauder_ratio(z, z, None, SPEC)
    assert rep.sentinel == "0/0"
    assert math.isnan(rep.ratio)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    # a vanishing seminorm has no maximizing pair, the trace norm included
    assert [r.argmax for r in rep.results if r.kind != "sup"] == [(), (), ()]


def test_schauder_ratio_zero_rhs_sentinel():
    # zero data under a nonzero solution: x/0, as the studies' own quotients write it
    g = grid1(cells=4, steps=2)
    u = static(g, lambda x: x * (1.0 - x))
    z = FieldEnsemble(np.zeros((1, g.steps + 1, g.n_x1)), g)
    rep = schauder_ratio(u, z, None, SPEC)
    assert rep.lhs > 0.0 and rep.rhs == 0.0
    assert rep.sentinel == "x/0" and math.isnan(rep.ratio)


def test_non_finite_field_is_rejected():
    g = grid1(cells=4, steps=2)
    vals = np.zeros((1, g.steps + 1, g.n_x1))
    vals[0, 1, 2] = np.nan
    for fn in (space_seminorm, parabolic_seminorm):
        with pytest.raises(ValueError, match="finite"):
            fn(FieldEnsemble(vals, g), SPEC)


def test_schauder_ratio_parts_sum_to_sides():
    g = grid1(cells=5, steps=3)
    rng = np.random.default_rng(2)
    u = FieldEnsemble(rng.normal(size=(2, g.steps + 1, g.n_x1)), g)
    f = FieldEnsemble(rng.normal(size=(2, g.steps + 1, g.n_x1)), g)
    gg = FieldEnsemble(rng.normal(size=(2, g.steps + 1, g.n_x1, 2)), g, n_modes=2)
    rep = schauder_ratio(u, f, gg, SPEC)
    # each part recomputed with the public norm functions
    lhs = sup_norm(u, SPEC, m=2).value + parabolic_seminorm(u, SPEC, m=2).value
    trace_sup, trace_semi = trace_parabolic_norm(f, SPEC)
    rhs = (
        sup_norm(f, SPEC).value
        + space_seminorm(f, SPEC).value
        + trace_sup
        + trace_semi.value
        + sup_norm(gg, SPEC, m=1).value
        + space_seminorm(gg, SPEC, m=1).value
    )
    assert rep.lhs == pytest.approx(lhs)
    assert rep.rhs == pytest.approx(rhs)
    assert rep.ratio == pytest.approx(rep.lhs / rep.rhs)
    assert rep.sentinel == ""


@pytest.mark.parametrize("values", ["normal", "ties"])
def test_schauder_ratio_forms_each_derivative_once(values, monkeypatch):
    g = SpaceTimeGrid(dim=2, x1_max=1.0, x1_cells=4, t_max=0.5, steps=6, xp_max=1.0, xp_cells=5)
    rng = np.random.default_rng(12)
    shape = (3, g.steps + 1) + g.space_shape
    if values == "normal":
        fields = [rng.normal(size=shape), rng.normal(size=shape), rng.normal(size=shape + (2,))]
    else:  # small integers: equal quotients across pairs, times and derivatives
        fields = [rng.integers(-1, 2, s) * 1.0 for s in (shape, shape, shape + (2,))]
    u, f = FieldEnsemble(fields[0], g), FieldEnsemble(fields[1], g)
    gg = FieldEnsemble(fields[2], g, n_modes=2)
    separate = [
        sup_norm(u, SPEC, m=2),
        parabolic_seminorm(u, SPEC, m=2),
        sup_norm(f, SPEC),
        space_seminorm(f, SPEC),
        trace_parabolic_norm(f, SPEC)[1],
        sup_norm(gg, SPEC, m=1),
        space_seminorm(gg, SPEC, m=1),
    ]
    calls = []

    def spy(field, beta, out=None):
        calls.append(beta)
        return finite_diff(field, beta, out)

    monkeypatch.setattr(norms, "finite_diff", spy)
    rep = schauder_ratio(u, f, gg, SPEC)
    # D1 u, D2 u, the three D^2 u and the two Dg, each once (the separate calls make 12)
    assert len(calls) == 7 and len(set(calls)) == 5
    assert rep.results == separate
    assert [str(r.argmax) for r in rep.results] == [str(r.argmax) for r in separate]


@pytest.mark.parametrize("policy", ["exhaustive", "dyadic"])
@pytest.mark.parametrize("values", ["normal", "ties"])
def test_time_constant_data_is_evaluated_on_one_level(policy, values, monkeypatch):
    # data with a zero time stride is the same at every time node: its norms
    # come from level 0 alone, with the value, argmax and pairs of the full pass
    spec = NormSpec(alpha=0.5, pair_policy=policy)
    grids = [
        SpaceTimeGrid(dim=2, x1_max=1.0, x1_cells=4, t_max=0.5, steps=6, xp_max=1.0, xp_cells=5),
        grid1(cells=7, steps=5),
    ]
    batches, stencil_max = [], norms._stencil_max
    monkeypatch.setattr(
        norms, "_stencil_max", lambda v, *args: batches.append(v.shape[0]) or stencil_max(v, *args)
    )
    for g in grids:
        rng = np.random.default_rng(g.dim)
        for paths, n_modes in ((1, 0), (3, 2)):
            level = (paths, 1) + g.space_shape + ((n_modes,) if n_modes else ())
            # small integers tie across pairs and derivatives, and every level ties
            one = rng.normal(size=level) if values == "normal" else rng.integers(-1, 2, level) * 1.0
            const = np.broadcast_to(one, (paths, g.steps + 1) + level[2:])
            later = const.copy()
            later[:, -1] += 1.0  # a field whose last level differs
            fields = [FieldEnsemble(v, g, n_modes) for v in (const, const.copy(), later)]
            for m in (0, 1):
                for norm in (sup_norm, space_seminorm, parabolic_seminorm):
                    seen = []
                    for f in fields:
                        batches.clear()
                        seen.append((norm(f, spec, m), set(batches)))
                    (one_level, one_batch), (full, full_batch), (_, later_batch) = seen
                    assert one_level == full and str(one_level.argmax) == str(full.argmax)
                    if norm is space_seminorm:
                        assert one_batch == {1}
                        assert full_batch == later_batch == {g.steps + 1}


# -- brute-force reference: gathered pair lists with per-pair denominators --


def _oracle_pairs(shape, periodic, time_axis, policy):
    n_pts = int(np.prod(shape))
    if policy == "exhaustive":
        return np.triu_indices(n_pts, k=1)
    qa, qb = [], []
    for off in _dyadic_offsets(shape, periodic, time_axis):
        ranges = [
            np.arange(n) if per else np.arange(max(0, -o), n - max(0, o))
            for n, per, o in zip(shape, periodic, off)
        ]
        ia = [g.ravel() for g in np.meshgrid(*ranges, indexing="ij")]
        ib = [(g + o) % n if per else g + o for g, n, per, o in zip(ia, shape, periodic, off)]
        qa.append(np.ravel_multi_index(ia, shape))
        qb.append(np.ravel_multi_index(ib, shape))
    qa, qb = np.concatenate(qa), np.concatenate(qb)
    keep = qa != qb
    return qa[keep], qb[keep]


def _oracle_max(values, n_modes, shape, spacings, periodic, time_axis, spec):
    """(max quotient, argmax pair or (), pair count) over the gathered list."""
    qa, qb = _oracle_pairs(shape, periodic, time_axis, spec.pair_policy)
    ia, ib = np.unravel_index(qa, shape), np.unravel_index(qb, shape)
    space_sq, dt_term = np.zeros(qa.shape), np.zeros(qa.shape)
    for a, (n, h, per) in enumerate(zip(shape, spacings, periodic)):
        d = np.abs(ia[a].astype(np.int64) - ib[a].astype(np.int64))
        if per:
            d = np.minimum(d, n - d)
        if a == time_axis:
            dt_term = (d * h) ** (spec.alpha / 2.0)
        else:
            space_sq = space_sq + (d * h) ** 2
    denom = np.sqrt(space_sq) ** spec.alpha + dt_term
    modes = (n_modes,) if n_modes else ()
    flat = values.reshape((values.shape[0], int(np.prod(shape))) + modes)
    # a gathered pair list, path-major (a gather leaves it pair-major, whose
    # contiguous paths numpy would sum pairwise): the mode ell^2, then np.mean
    d = np.ascontiguousarray(flat[:, qa] - flat[:, qb])
    a = np.sqrt(np.sum(d * d, axis=-1)) if n_modes else np.abs(d)
    q = np.mean(a**spec.gamma, axis=0) ** (1.0 / spec.gamma) / denom
    k = int(np.argmax(q))
    if q[k] == 0.0:
        return 0.0, (), qa.size
    pair = tuple(tuple(map(int, np.unravel_index(i[k], shape))) for i in (qa, qb))
    return float(q[k]), pair, qa.size


def _oracle_parabolic(f, spec, m):
    shape, spacings, periodic = _grid_geometry(f.grid, with_time=True)
    value, arg, pairs = 0.0, (), 0
    for beta in _multi_indices(f.grid.dim, m):
        g = finite_diff(f, beta) if m else f
        v, a, pairs = _oracle_max(g.values, f.n_modes, shape, spacings, periodic, 0, spec)
        if v > value:
            value, arg = v, a
    return value, arg, pairs


def _oracle_space(f, spec, m):
    shape, spacings, periodic = _grid_geometry(f.grid, with_time=False)
    value, arg, pairs = 0.0, (), 0
    for beta in _multi_indices(f.grid.dim, m):
        g = finite_diff(f, beta) if m else f
        for j in range(f.grid.steps + 1):
            v, a, n = _oracle_max(g.values[:, j], f.n_modes, shape, spacings, periodic, None, spec)
            pairs = n * (f.grid.steps + 1)
            if v > value:
                value, arg = v, (j,) + a
    return value, arg, pairs


def _oracle_trace(f, spec):
    g = f.grid
    shape, spacings = (g.steps + 1, g.n_xp)[: g.dim], (g.dt, g.dxp)[: g.dim]
    trace = f.values[:, :, g.wall_index, ...]
    return _oracle_max(trace, f.n_modes, shape, spacings, (False, True)[: g.dim], 0, spec)


def _assert_matches_oracle(f, spec, m):
    def same(result, oracle):
        value, arg, pairs = oracle
        assert (result.value, result.argmax, result.pairs) == (value, arg, pairs)
        assert str(result.argmax) == str(arg)  # plain ints, as the oracle's
        assert result.kind.endswith(f"[{spec.pair_policy}]")

    same(parabolic_seminorm(f, spec, m), _oracle_parabolic(f, spec, m))
    same(space_seminorm(f, spec, m), _oracle_space(f, spec, m))
    if not f.grid.periodic_x1:
        same(trace_parabolic_norm(f, spec)[1], _oracle_trace(f, spec))


@st.composite
def stencil_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    grid = SpaceTimeGrid(
        dim=dim,
        x1_max=1.0,
        x1_cells=draw(st.integers(2, 4)),
        t_max=draw(st.sampled_from([0.25, 1.0])),
        steps=draw(st.integers(1, 5)),
        xp_max=1.0 if dim == 2 else 0.0,
        xp_cells=draw(st.integers(4, 5)) if dim == 2 else 0,
        periodic_x1=draw(st.booleans()),
    )
    n_modes = draw(st.sampled_from([0, 2]))
    modes = (n_modes,) if n_modes else ()
    shape = (draw(st.integers(1, 3)), grid.steps + 1) + grid.space_shape + modes
    # small integers, so equal quotients (ties) are common
    vals = draw(arrays(np.float64, shape, elements=st.integers(-2, 2).map(float)))
    spec = NormSpec(
        alpha=draw(st.sampled_from([0.25, 0.5])),
        gamma=draw(st.sampled_from([2.0, 3.0])),
        pair_policy=draw(st.sampled_from(["exhaustive", "dyadic"])),
    )
    return FieldEnsemble(vals, grid, n_modes=n_modes), spec, draw(st.integers(0, 1))


@given(stencil_cases())
def test_stencil_engine_matches_pair_list_oracle(case):
    _assert_matches_oracle(*case)


# path counts: 1 (without modes a pair's moment is |a - b|), 7, and 8 and more,
# where numpy's pairwise sum rounds apart from path order.  The branch of
# _ordered_path_sum goes by a block's rows, not its paths, and every count reaches
# both in the two tests below: blocks under 256 rows accumulate (the trace rows'
# last blocks, the far dyadic offsets), longer ones add path by path
PATH_COUNTS = (1, 7, 8, 11, 17, 136)


@pytest.mark.parametrize("policy", ["exhaustive", "dyadic"])
@pytest.mark.parametrize("n_modes", [0, 2])
def test_stencil_engine_is_bit_identical_on_float_fields(policy, n_modes):
    g = SpaceTimeGrid(dim=2, x1_max=1.0, x1_cells=4, t_max=0.5, steps=8, xp_max=1.0, xp_cells=6)
    for paths in PATH_COUNTS:
        shape = (paths, g.steps + 1) + g.space_shape + ((n_modes,) if n_modes else ())
        vals = np.random.default_rng(paths).normal(size=shape)
        f = FieldEnsemble(vals, g, n_modes=n_modes)
        _assert_matches_oracle(f, NormSpec(alpha=0.5, pair_policy=policy), 1)


@pytest.mark.parametrize("policy", ["exhaustive", "dyadic"])
@pytest.mark.parametrize("n_modes", [0, 2])
def test_blocked_reduction_is_bit_identical_across_block_boundaries(monkeypatch, policy, n_modes):
    # 1024 values hold a few rows: slices span several blocks, the last one
    # partial, and the spy below sees both
    monkeypatch.setattr(norms, "_BLOCK", 1024)
    moment, rows, trace = norms._difference_moment, [], []

    def spy(a, b, *args):
        rows.append(a.shape[1])
        if policy == "exhaustive" and a.shape[0] == a.shape[2] == 1:  # the trace row: one
            # batch entry, base nodes leading, each block's pairs q > its first base node
            trace.append(a.shape[1])
        return moment(a, b, *args)

    monkeypatch.setattr(norms, "_difference_moment", spy)
    modes = (n_modes,) if n_modes else ()
    grids = [
        # (t, x1, x') with a periodic x' wrap; batch > 1 in the space seminorm
        SpaceTimeGrid(dim=2, x1_max=1.0, x1_cells=4, t_max=0.5, steps=8, xp_max=1.0, xp_cells=5),
        SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=9, t_max=0.5, steps=12, periodic_x1=True),
        # a one-axis trace lattice of 33 time nodes: its one row of 33 x 33 pairs passes _BLOCK
        SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=3, t_max=0.5, steps=32),
    ]
    for g in grids:
        for paths in PATH_COUNTS:
            rng = np.random.default_rng(paths)
            shape = (paths, g.steps + 1) + g.space_shape + modes
            # integer values tie often; a ramp in x1 ties across every time row,
            # so the earliest maximum must survive the later blocks
            ramp = np.arange(g.n_x1).reshape((1, 1, -1) + (1,) * (len(shape) - 3))
            for vals, m in (
                (rng.normal(size=shape), 1),
                (rng.integers(-2, 3, shape) * 1.0, 0),
                (np.broadcast_to(ramp * 1.0, shape), 0),
            ):
                spec = NormSpec(alpha=0.5, pair_policy=policy)
                _assert_matches_oracle(FieldEnsemble(vals, g, n_modes=n_modes), spec, m)
    assert max(rows) > 1
    assert any(1 <= b < a for a, b in zip(rows, rows[1:]))
    if policy == "exhaustive":  # the trace row goes by base nodes, its last block partial
        assert any(1 <= b < a for a, b in zip(trace, trace[1:]))


def test_a_one_axis_exhaustive_norm_holds_no_pair_table():
    # 2,049 time nodes x 8 paths: 33.6 million differences, a block at a time
    g = grid1(cells=2, steps=2048)
    f = wall_field(g, np.random.default_rng(5).normal(size=(8, g.steps + 1)), paths=8)
    tracemalloc.start()
    try:
        semi = trace_parabolic_norm(f, SPEC)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert semi.pairs == 2049 * 2048 // 2 and semi.value > 0.0
    assert peak < 4 * 10**6


@pytest.mark.parametrize("paths", [1, 7, 8, 9, 16])
@pytest.mark.parametrize("n_modes", [0, 2])
def test_the_sup_sums_paths_in_path_order_from_the_paths_last_buffer(monkeypatch, paths, n_modes):
    # the sup reads the padded engine buffer a block of levels at a time; its
    # blocks' moments, joined, are np.mean(axis=0) of the path-major field
    monkeypatch.setattr(norms, "_BLOCK", 64)
    blocks, moment, sup_update = [], norms._moment, norms._UPDATES["sup"]

    def sup_spy(*args):  # the moments the sup takes, not the quotients'
        with monkeypatch.context() as patch:
            patch.setattr(norms, "_moment", lambda *a: blocks.append(moment(*a)) or blocks[-1])
            return sup_update(*args)

    monkeypatch.setitem(norms._UPDATES, "sup", sup_spy)
    g = SpaceTimeGrid(dim=2, x1_max=1.0, x1_cells=4, t_max=0.5, steps=8, xp_max=1.0, xp_cells=6)
    rng = np.random.default_rng(paths)
    shape = (paths, g.steps + 1) + g.space_shape + ((n_modes,) if n_modes else ())
    x = np.ldexp(rng.standard_normal(shape), rng.integers(-20, 21, shape))
    spec = NormSpec(alpha=0.5, pair_policy="dyadic")  # wraps x', so the buffer is padded
    sup, _ = norms._norms(FieldEnsemble(x, g, n_modes), spec, 0, "sup", "space_seminorm")
    a = np.sqrt(np.sum(x * x, axis=-1)) if n_modes else x
    expected = np.sqrt(np.mean(a * a, axis=0))
    assert len(blocks) > 1
    assert np.array_equal(np.concatenate(blocks).view(np.int64), expected.view(np.int64))
    assert sup.value == expected.max()
    if paths >= 8:  # numpy's pairwise sum over contiguous paths rounds otherwise here
        pairwise = np.mean(np.ascontiguousarray(np.moveaxis(a * a, 0, -1)), axis=-1)
        assert not np.array_equal(np.sqrt(pairwise), expected)


@pytest.mark.parametrize("paths", [8, 11, 17])
def test_the_quotients_and_the_sup_sum_paths_in_one_order(paths):
    # zero but at one node, at unit spacing: the largest space quotient is an
    # adjacent pair's, |v - 0| / 1, the sup's moment at that node bit for bit
    # when both sum the paths in one order.  Numpy's pairwise order rounds the
    # largest moment apart in 3, 5 and 7 of these 16 draws
    g = grid1(cells=6, steps=4, x1_max=6.0)
    rng = np.random.default_rng(paths)
    shape = (paths, g.steps + 1)
    for _ in range(16):
        vals = np.zeros(shape + (g.n_x1,))
        vals[:, :, 3] = np.ldexp(rng.standard_normal(shape), rng.integers(-20, 21, shape))
        f = FieldEnsemble(vals, g)
        assert space_seminorm(f, SPEC).value == sup_norm(f, SPEC).value


@pytest.mark.parametrize("m", [-1, 3, 1.5, True])
def test_the_norms_refuse_a_derivative_order_outside_0_to_2(m):
    # m = -1 once gave a sup of -1.0 and seminorms of 0.0 over 0 pairs
    g = SpaceTimeGrid(dim=2, x1_max=1.0, x1_cells=4, t_max=0.5, steps=4, xp_max=1.0, xp_cells=4)
    f = FieldEnsemble(np.random.default_rng(4).normal(size=(2, g.steps + 1) + g.space_shape), g)
    for norm in (sup_norm, space_seminorm, parabolic_seminorm):
        with pytest.raises(ValueError, match=r"^m must be"):
            norm(f, SPEC, m)


def test_a_level_one_schauder_ratio_holds_one_padded_derivative():
    # the checked-in schauder_ratio grid refined once, 8 paths: u is 2.5 MB.  The
    # norms hold one derivative buffer, x' padded from 12 to 19 nodes
    g = SpaceTimeGrid(
        dim=2, x1_max=2.5, x1_cells=12, t_max=0.0625, steps=32, xp_max=1.0, xp_cells=6
    ).refine()
    rng = np.random.default_rng(0)
    u = FieldEnsemble(rng.normal(size=(8, g.steps + 1) + g.space_shape), g)
    level = rng.normal(size=(1, 1) + g.space_shape)
    f = FieldEnsemble(np.broadcast_to(level, (1, g.steps + 1) + g.space_shape), g)
    gg = FieldEnsemble(np.broadcast_to(level[..., None], f.values.shape + (1,)), g, n_modes=1)
    tracemalloc.start()
    try:
        rep = schauder_ratio(u, f, gg, NormSpec(alpha=0.5, pair_policy="dyadic"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = u.values.nbytes * (g.n_xp + 7) // g.n_xp
    assert math.isfinite(rep.ratio) and rep.ratio > 0.0
    # and a few blocks of 2^19 bytes (D1u, its ghost copy and D12u of one block of
    # time levels), with no room for another field-sized array
    assert peak < buffer + 4 * 2**19


@st.composite
def homogeneity_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    grid = SpaceTimeGrid(
        dim=dim,
        x1_max=1.0,
        x1_cells=draw(st.integers(2, 4)),
        t_max=0.5,
        steps=draw(st.integers(1, 4)),
        xp_max=1.0 if dim == 2 else 0.0,
        xp_cells=4 if dim == 2 else 0,
        periodic_x1=draw(st.booleans()),
    )
    n_modes = draw(st.sampled_from([0, 2]))
    shape = (draw(st.integers(1, 9)), grid.steps + 1) + grid.space_shape
    shape += (n_modes,) if n_modes else ()
    vals = draw(arrays(np.float64, shape, elements=st.floats(-4.0, 4.0, width=32)))
    spec = NormSpec(
        alpha=draw(st.sampled_from([0.25, 0.5, 0.75])),
        gamma=draw(st.sampled_from([2.0, 3.0])),
        pair_policy=draw(st.sampled_from(["exhaustive", "dyadic"])),
    )
    c = draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** draw(st.integers(-6, 6))
    return FieldEnsemble(vals, grid, n_modes=n_modes), spec, c


@given(homogeneity_cases())
def test_seminorms_are_homogeneous_under_powers_of_two(case):
    f, spec, c = case
    scaled = FieldEnsemble(c * f.values, f.grid, n_modes=f.n_modes)
    for fn in (parabolic_seminorm, space_seminorm):
        a, b = fn(f, spec), fn(scaled, spec)
        assert b.pairs == a.pairs
        if spec.gamma == 2.0:
            # a power of two scales every square, sum, mean and sqrt exactly
            assert (b.value, str(b.argmax)) == (abs(c) * a.value, str(a.argmax))
        else:
            # the 1/gamma power of 2^(gamma k) x is not 2^k x^(1/gamma) bit for bit
            assert b.value == pytest.approx(abs(c) * a.value, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("policy", ["exhaustive", "dyadic"])
@pytest.mark.parametrize(
    "c", [2.0**600, -(2.0**600), 2.0**-600, -(2.0**-600)], ids=["2^600", "-2^600", "2^-600", "-2^-600"]
)
def test_a_one_path_norm_is_homogeneous_past_the_range_of_squares(policy, c):
    # one path's moment is its magnitude: the square of c f would overflow past
    # 2^512 (sup inf, "field values must be finite") or vanish below 2^-511 (0.0)
    g = grid1(cells=6, steps=4)
    vals = np.random.default_rng(5).normal(size=(1, g.steps + 1, g.n_x1))
    spec = NormSpec(alpha=0.5, pair_policy=policy)
    for fn in (sup_norm, space_seminorm, parabolic_seminorm):
        a, b = fn(FieldEnsemble(vals, g), spec), fn(FieldEnsemble(c * vals, g), spec)
        assert (b.value, str(b.argmax)) == (abs(c) * a.value, str(a.argmax))
        assert 0.0 < a.value < math.inf


@pytest.mark.parametrize("gamma", [2.0, 3.0])
@pytest.mark.parametrize("n_modes", [0, 2])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("policy", ["exhaustive", "dyadic"])
@pytest.mark.parametrize(
    "c", [2.0**600, -(2.0**600), 2.0**-600, -(2.0**-600)], ids=["2^600", "-2^600", "2^-600", "-2^-600"]
)
def test_a_many_path_norm_is_homogeneous_past_the_range_of_squares(policy, c, dim, n_modes, gamma):
    # three paths square before they sum: unscaled, c f would overflow past 2^512
    # (sup inf, "field values must be finite") or vanish below 2^-511 (0.0)
    g = SpaceTimeGrid(dim=dim, x1_max=1.0, x1_cells=4, t_max=1.0, steps=4,
                      xp_max=1.0 if dim == 2 else 0.0, xp_cells=4 if dim == 2 else 0)
    shape = (3, g.steps + 1) + g.space_shape + ((n_modes,) if n_modes else ())
    vals = np.random.default_rng(7).normal(size=shape)
    spec = NormSpec(alpha=0.5, gamma=gamma, pair_policy=policy)
    for fn in (sup_norm, space_seminorm, parabolic_seminorm):
        a = fn(FieldEnsemble(vals, g, n_modes=n_modes), spec, 1)
        b = fn(FieldEnsemble(c * vals, g, n_modes=n_modes), spec, 1)
        assert (b.pairs, str(b.argmax)) == (a.pairs, str(a.argmax))
        if gamma == 2.0:  # a power of two scales every square, sum, mean and sqrt exactly
            assert b.value == abs(c) * a.value
        else:  # the 1/gamma power is not exactly homogeneous
            assert b.value == pytest.approx(abs(c) * a.value, rel=1e-15, abs=0.0)
        assert 0.0 < a.value < math.inf


@given(
    homogeneity_cases(),
    st.floats(0.25, 4.0, allow_nan=False),
)
def test_seminorms_obey_the_parabolic_scaling_law(case, lam):
    # the same nodal values on a grid dilated by lam in space and lam^2 in
    # time divide every denominator, hence the seminorms, by lam^alpha
    f, spec, _ = case
    g = f.grid
    dilated = SpaceTimeGrid(
        dim=g.dim,
        x1_max=lam * g.x1_max,
        x1_cells=g.x1_cells,
        t_max=lam * lam * g.t_max,
        steps=g.steps,
        xp_max=lam * g.xp_max,
        xp_cells=g.xp_cells,
        periodic_x1=g.periodic_x1,
    )
    scaled = FieldEnsemble(f.values, dilated, n_modes=f.n_modes)
    for fn in (parabolic_seminorm, space_seminorm):
        a, b = fn(f, spec).value, fn(scaled, spec).value
        assert b == pytest.approx(a / lam**spec.alpha, rel=1e-12, abs=0.0)


# -- the dyadic seminorm's two-sided bracket ----------------------------


def _c(beta):
    """C_beta = 1 / (1 - 2^-beta): sum_i 2^(k_i beta) <= C_beta (sum_i 2^k_i)^beta
    over distinct k_i, since the largest term is at most the sum."""
    return 1.0 / (1.0 - 2.0**-beta)


@st.composite
def bracket_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    grid = SpaceTimeGrid(
        dim=dim,
        x1_max=1.0,
        x1_cells=draw(st.integers(2, 6)),
        t_max=draw(st.sampled_from([0.25, 1.0])),
        steps=draw(st.integers(1, 6)),
        xp_max=1.0 if dim == 2 else 0.0,
        xp_cells=draw(st.integers(4, 5)) if dim == 2 else 0,
        periodic_x1=draw(st.booleans()),
    )
    n_modes = draw(st.sampled_from([0, 2]))
    shape = (draw(st.integers(1, 4)), grid.steps + 1) + grid.space_shape
    shape += (n_modes,) if n_modes else ()
    if draw(st.booleans()):
        vals = draw(arrays(np.float64, shape, elements=st.floats(-4.0, 4.0, width=32)))
    else:  # a sawtooth along time or x1: every even offset along that axis sees no change
        axis = draw(st.sampled_from([1, 2]))
        scale = draw(arrays(np.float64, shape[:1], elements=st.floats(0.5, 2.0, width=32)))
        sign = (-1.0) ** np.arange(shape[axis])
        vals = np.broadcast_to(
            scale.reshape((-1,) + (1,) * (len(shape) - 1))
            * sign.reshape((shape[axis],) + (1,) * (len(shape) - 1 - axis)),
            shape,
        ).copy()
    alpha = draw(st.sampled_from([0.25, 0.5, 0.75]))
    gamma = draw(st.sampled_from([2.0, 3.0]))
    return FieldEnsemble(vals, grid, n_modes=n_modes), alpha, gamma


@settings(max_examples=60)
@given(bracket_cases())
def test_the_dyadic_seminorm_brackets_the_exhaustive_one(case):
    # Chain a pair one axis at a time through the binary digits of its distance
    # d = sum_i 2^k_i, the short way round on a periodic axis, so d <= n - 1
    # on a walled axis and d <= n // 2 on a periodic one.  Every step is a
    # dyadic offset; the moment is a norm over paths (Minkowski), so each axis
    # adds at most C_alpha dyadic |x - y|^alpha, and time at most
    # C_{alpha/2} dyadic |t - s|^{alpha/2}.  Hence dyadic <= exhaustive <= C dyadic.
    f, alpha, gamma = case
    n_space = f.grid.dim
    bounds = {
        space_seminorm: n_space * _c(alpha),
        parabolic_seminorm: max(_c(alpha / 2.0), n_space * _c(alpha)),
    }
    for fn, c in bounds.items():
        dyadic = fn(f, NormSpec(alpha, gamma, "dyadic")).value
        exhaustive = fn(f, NormSpec(alpha, gamma, "exhaustive")).value
        assert dyadic <= exhaustive <= c * dyadic * (1.0 + 1e-12), (fn.__name__, dyadic, exhaustive)
    # the chain's steps: every power of two up to the axis's largest distance
    shape, _, periodic = _grid_geometry(f.grid, True)
    for a, (n, per) in enumerate(zip(shape, periodic)):
        cap = n // 2 if per else n - 1
        axis_steps = [o[a] for o in _dyadic_offsets(shape, periodic, 0) if o[a] and o.count(0) == len(o) - 1]
        assert sorted(axis_steps) == [2**k for k in range(cap.bit_length())]
