"""Continuation in the operator family L_s = s L + (1 - s) Laplacian.

Solvability travels along s by iteration: solve the easy s0 problem
repeatedly, feeding the operator increment applied to the previous
iterate back in as extra forcing.  When s - s0 is small enough the map
contracts and the iterates converge to the solution at s.

Iterate m at a time step needs only iterate m - 1 at the same step, so
`continuity_iterates` advances all seven iterates in one time loop.  The
script prints the successive-difference norms; the ratio column should
sit below 1 and stay roughly constant.
"""

import numpy as np

from spdelab import (
    FieldEnsemble,
    Forcing,
    ModelCoefficients,
    SeedSpec,
    SpaceTimeGrid,
    continuity_iterates,
    wiener_increments,
)


def main():
    grid = SpaceTimeGrid(dim=1, x1_max=0.8, x1_cells=24, t_max=0.25, steps=3584)
    coeffs = ModelCoefficients.make(1, np.array([[1.9]]), np.array([[0.5]]), kappa=0.5)
    s, s0 = 1.0, 0.9
    paths = 16

    noise = wiener_increments(SeedSpec(20260821, 5), paths, grid.steps, 1, dt=grid.dt)
    f = FieldEnsemble(np.ones((1, grid.steps + 1, grid.n_x1)), grid)
    diffs, _ = continuity_iterates(coeffs, s, s0, Forcing(f=f), grid, noise, 7)

    print(f"target s = {s}, base point s0 = {s0}, {paths} paths")
    print(f"{'iter':>4s} {'sup-node E|v_m - v_(m-1)|^2':>28s} {'ratio':>8s}")
    for m, d in enumerate(diffs, start=2):
        ratio = "" if m == 2 else f"{d / diffs[m - 3]:8.4f}"
        print(f"{m:4d} {d:28.6e} {ratio:>8s}")


if __name__ == "__main__":
    main()
