"""Counter-based Gaussian stream: determinism, statistics, coarsening."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdelab import (
    SeedSpec,
    coarsen,
    standard_normals,
    wiener_increments,
)

SEED = SeedSpec(master_seed=987654321, stream_salt=7)


def test_standard_normals_bit_identical_rerun():
    a = standard_normals(SEED, np.arange(16), np.arange(32), np.arange(3))
    b = standard_normals(SEED, np.arange(16), np.arange(32), np.arange(3))
    assert a.shape == (16, 32, 3)
    assert np.array_equal(a, b)


@given(
    seed=st.integers(0, 2**64 - 1),
    salt=st.integers(0, 2**64 - 1),
    paths=st.lists(st.integers(0, 31), min_size=1, max_size=12, unique=True),
    steps=st.tuples(st.integers(0, 15), st.integers(1, 8)),
    modes=st.tuples(st.integers(0, 3), st.integers(1, 3)),
)
def test_standard_normals_indexed_by_labels_not_layout(seed, salt, paths, steps, modes):
    # any subset or permutation of path labels and any step/mode sub-range
    # equals the matching entries of the full lattice, bit for bit
    spec = SeedSpec(master_seed=seed, stream_salt=salt)
    full = standard_normals(spec, np.arange(32), np.arange(24), np.arange(6))
    p = np.array(paths)
    s = np.arange(steps[0], steps[0] + steps[1])
    m = np.arange(modes[0], modes[0] + modes[1])
    assert np.array_equal(standard_normals(spec, p, s, m), full[np.ix_(p, s, m)])


def test_seed_and_salt_separate_streams():
    base = standard_normals(SEED, np.arange(8), np.arange(8), np.arange(1))
    other_seed = standard_normals(
        SeedSpec(master_seed=987654322, stream_salt=7), np.arange(8), np.arange(8), np.arange(1)
    )
    other_salt = standard_normals(
        SeedSpec(master_seed=987654321, stream_salt=8), np.arange(8), np.arange(8), np.arange(1)
    )
    assert not np.array_equal(base, other_seed)
    assert not np.array_equal(base, other_salt)


def test_seed_spec_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        SeedSpec(master_seed=-1)
    with pytest.raises(ValueError):
        SeedSpec(master_seed=2**64)
    with pytest.raises(TypeError):
        standard_normals(123, np.arange(2), np.arange(2), np.arange(1))


@pytest.mark.parametrize("field", ["master_seed", "stream_salt"])
@pytest.mark.parametrize("value", [1.5, 1.0, True])
def test_seed_spec_refuses_a_value_that_is_not_an_integer(field, value):
    # SeedSpec(1.5) and SeedSpec(True) once drew exactly seed 1's normals
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        SeedSpec(**{"master_seed": 1, field: value})
    assert SeedSpec(np.uint64(1), np.int64(1)) == SeedSpec(1, 1)


def test_standard_normals_moments():
    z = standard_normals(SEED, np.arange(200), np.arange(500), np.arange(1)).ravel()
    n = z.size
    # mean of n iid N(0,1) has sd 1/sqrt(n); 4 sigma bound
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 0.02
    # tails exist but are not wild
    assert np.max(np.abs(z)) < 6.0
    assert np.mean(np.abs(z) > 1.96) == pytest.approx(0.05, abs=0.01)


def test_no_invalid_value_warnings():
    with np.errstate(all="raise"):
        # overflow in the integer mix must stay contained
        z = standard_normals(SEED, np.arange(64), np.arange(64), np.arange(2))
    assert np.all(np.isfinite(z))


def test_wiener_increment_variance_matches_dt():
    dt = 1e-3
    batch = wiener_increments(SEED, 400, 250, dt=dt)
    assert batch.increments.shape == (400, 250, 1)
    assert batch.dt == dt
    assert batch.increments.var() == pytest.approx(dt, rel=0.05)
    w_end = np.cumsum(batch.increments, axis=1)[:, -1, 0]
    # Var(w_T) = T
    assert w_end.var() == pytest.approx(250 * dt, rel=0.15)


def test_worker_block_reproduces_full_batch():
    # a smaller ensemble is the leading block of a larger one
    full = wiener_increments(SEED, 12, 40, dt=0.01, n_modes=2)
    block = wiener_increments(SEED, 9, 40, dt=0.01, n_modes=2)
    assert np.array_equal(block.increments[4:9], full.increments[4:9])


def test_coarsen_sums_consecutive_increments():
    fine = wiener_increments(SEED, 6, 32, dt=0.25, n_modes=2)
    coarse = coarsen(fine, 4)
    assert coarse.dt == pytest.approx(1.0)
    assert coarse.n_steps == 8
    expect = fine.increments.reshape(6, 8, 4, 2).sum(axis=2)
    assert np.array_equal(coarse.increments, expect)
    # Wiener values agree exactly at the shared time nodes
    w_fine = np.cumsum(fine.increments, axis=1)
    w_coarse = np.cumsum(coarse.increments, axis=1)
    assert np.allclose(w_coarse, w_fine[:, 3::4], atol=1e-12)


@given(
    p=st.integers(1, 5),
    q=st.integers(1, 5),
    coarse_steps=st.integers(1, 4),
    paths=st.integers(1, 3),
    n_modes=st.integers(1, 2),
    master=st.integers(0, 2**64 - 1),
)
def test_coarsen_telescopes(p, q, coarse_steps, paths, n_modes, master):
    # the two summation orders differ, so the match is to rounding only
    fine = wiener_increments(
        SeedSpec(master), paths, p * q * coarse_steps, n_modes=n_modes, dt=0.01
    )
    twice = coarsen(coarsen(fine, p), q)
    once = coarsen(fine, p * q)
    assert twice.n_steps == once.n_steps == coarse_steps
    assert twice.dt == pytest.approx(once.dt, rel=1e-14, abs=0.0)
    blocks = np.abs(fine.increments).reshape(paths, coarse_steps, p * q, n_modes)
    bound = 1e-14 * blocks.sum(axis=2)
    assert np.all(np.abs(twice.increments - once.increments) <= bound)


@pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf, -np.inf])
def test_wiener_increments_refuse_a_dt_that_is_not_positive_and_finite(dt):
    # NaN and inf pass a bare dt <= 0 test and would give NaN or inf increments
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        wiener_increments(SEED, 2, 3, dt=dt)


def test_coarsen_rejects_nondivisor():
    batch = wiener_increments(SEED, 2, 10, dt=0.1)
    with pytest.raises(ValueError):
        coarsen(batch, 3)


def test_increment_values_come_from_the_lattice():
    # dt = 4 keeps the scaling factor exactly representable
    batch = wiener_increments(SEED, 3, 7, dt=4.0, n_modes=2)
    z = standard_normals(SEED, np.arange(3), np.arange(7), np.arange(2))
    assert np.array_equal(batch.increments, 2.0 * z)
