"""Counter-based Gaussian draws for Wiener increment ensembles.

Every normal draw is a pure function of the tuple
``(master_seed, stream_salt, path, step, mode)``.  Nothing here keeps
generator state, so any sub-block of an ensemble can be regenerated in
isolation, bit-identical to the matching entries of the full batch, and
reductions over paths are reproducible regardless of scheduling.

The index tuple is absorbed into a 64-bit state with a splitmix64-style
finalizer chain and mapped to a standard normal through the inverse CDF
(one 64-bit word per draw, no Box-Muller pairing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .fields import _integer

__all__ = [
    "SeedSpec",
    "WienerBatch",
    "standard_normals",
    "wiener_increments",
    "coarsen",
]

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64


def _finalize(x):
    # splitmix64 output finalizer; wraps mod 2**64 by design
    x = (x ^ (x >> _U64(30))) * _U64(_MIX1)
    x = (x ^ (x >> _U64(27))) * _U64(_MIX2)
    return x ^ (x >> _U64(31))


def _absorb(state, word):
    # order-sensitive sponge step: distinct tuples give distinct chains
    return _finalize(state ^ (word * _U64(_GOLDEN) + _U64(1)))


def _check_u64(name, value):
    iv = int(_integer(name, value))
    if iv < 0 or iv >= 2**64:
        raise ValueError(f"{name} must fit in an unsigned 64-bit word, got {value}")
    return iv


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream salt separating independent ensembles."""

    master_seed: int
    stream_salt: int = 0

    def __post_init__(self):
        _check_u64("master_seed", self.master_seed)
        _check_u64("stream_salt", self.stream_salt)


@dataclass
class WienerBatch:
    """Increment array of shape (paths, steps, modes) with variance dt."""

    increments: np.ndarray
    dt: float

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def n_steps(self) -> int:
        return self.increments.shape[1]

    @property
    def n_modes(self) -> int:
        return self.increments.shape[2]


def standard_normals(seed, path_idx, step_idx, mode_idx):
    """Evaluate the normal lattice at an index grid.

    Parameters are the seed spec and three integer index arrays; the
    result broadcasts to shape ``path_idx x step_idx x mode_idx`` (each
    argument may also be a scalar).  Element ``[p, s, m]`` depends only
    on the five-tuple of seed, salt and the three indices.
    """
    if not isinstance(seed, SeedSpec):
        raise TypeError("seed must be a SeedSpec")
    p = np.asarray(path_idx, dtype=np.uint64).reshape(-1, 1, 1)
    s = np.asarray(step_idx, dtype=np.uint64).reshape(1, -1, 1)
    m = np.asarray(mode_idx, dtype=np.uint64).reshape(1, 1, -1)
    with np.errstate(over="ignore"):  # mod-2^64 wraparound is the point
        state = _finalize(_U64(seed.master_seed) ^ _U64(_GOLDEN))
        state = _absorb(state, _U64(seed.stream_salt))
        state = _absorb(state, p)
        state = _absorb(state, s)
        state = _absorb(state, m)
    # top 53 bits to a uniform in (0,1), open at both ends
    u = ((state >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def wiener_increments(seed, n_paths, n_steps, n_modes=1, *, dt):
    """Generate a WienerBatch of iid N(0, dt) increments."""
    if not 0 < dt < np.inf:  # NaN fails too
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if n_steps < 1 or n_modes < 1:
        raise ValueError("need at least one step and one mode")
    z = standard_normals(seed, np.arange(n_paths), np.arange(n_steps), np.arange(n_modes))
    return WienerBatch(increments=np.sqrt(dt) * z, dt=float(dt))


def coarsen(batch: WienerBatch, factor: int) -> WienerBatch:
    """Aggregate consecutive increments so coarse = sums of fine.

    Used by refinement studies that couple noise across grids: the
    returned batch drives a (factor * dt) discretization of the same
    underlying paths.
    """
    if factor < 1 or batch.n_steps % factor != 0:
        raise ValueError(f"factor {factor} must divide n_steps {batch.n_steps}")
    inc = batch.increments
    agg = inc.reshape(inc.shape[0], inc.shape[1] // factor, factor, inc.shape[2]).sum(axis=2)
    return WienerBatch(increments=agg, dt=batch.dt * factor)
