"""Shared-lattice noise refinement and strong convergence.

`wiener_increments` draws every Gaussian from a counter-based lattice
keyed by (seed, path, step, mode), so a fine batch can be coarsened by
summing blocks of increments and the coarse solve sees *the same*
Brownian paths.  That is what makes strong (pathwise) convergence
measurable: solve on three nested grids, compare against the finest,
and watch the error drop by roughly the order of the scheme each time
the resolution quadruples.
"""

import numpy as np

from spdelab import (
    FieldEnsemble,
    Forcing,
    ModelCoefficients,
    SeedSpec,
    SpaceTimeGrid,
    coarsen,
    solve_model_halfspace,
    wiener_increments,
)

PATHS = 32
SEED = SeedSpec(20260821, 9)


def solve_level(k, fine_noise):
    # level k: 8*2^k cells, 64*4^k steps; time refines 4x per level
    cells, steps = 8 * 2**k, 64 * 4**k
    grid = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=cells, t_max=0.05, steps=steps)
    noise = coarsen(fine_noise, 4 ** (2 - k)) if k < 2 else fine_noise
    co = ModelCoefficients.make(1, np.array([[1.0]]), np.array([[0.7]]), kappa=0.3)
    shape = (1, steps + 1, grid.n_x1)
    f = FieldEnsemble(np.broadcast_to(np.sin(np.pi * grid.x1_nodes), shape).copy(), grid)
    u_end = solve_model_halfspace(co, Forcing(f=f), grid, noise).values[:, -1]
    return grid, u_end


def main():
    fine = wiener_increments(SEED, PATHS, 64 * 16, 1, dt=0.05 / (64 * 16))
    results = [solve_level(k, fine) for k in range(3)]

    print(f"{PATHS} paths on one Brownian lattice, final-time slices:")
    errors = []
    g_ref, u_ref = results[-1]
    for k, (grid, u_end) in enumerate(results[:-1]):
        stride = (g_ref.n_x1 - 1) // (grid.n_x1 - 1)
        err = np.sqrt(np.mean((u_end - u_ref[:, ::stride]) ** 2))
        errors.append(err)
        print(f"  level {k} ({grid.x1_cells:3d} cells, {grid.steps:5d} steps): rms gap {err:.3e}")
    print(f"refinement gain level 0 -> 1: {errors[0] / errors[1]:.2f}x")


if __name__ == "__main__":
    main()
