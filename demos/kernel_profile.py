"""Walk through the half-line boundary kernel.

The wall profile v(t, y) produced by Dirichlet data h on the half-line
heat equation is a convolution with the Poisson-type kernel
P(s, y) = y / (2 sqrt(pi) s^{3/2}) exp(-y^2 / 4s).  This script pokes at
the kernel directly, then solves for the quadratic ramp h(t) = t^2 and
checks the two analytic identities a correct implementation must obey:

  * unit mass: integral over s of P(s, y) ds = 1 for every y > 0,
  * the heat identity d/dt v = d^2/dy^2 v away from the wall.
"""

import numpy as np

from spdelab import (
    BoundaryData,
    SpaceTimeGrid,
    dt_v,
    finite_diff,
    kernel_mass,
    poisson_kernel,
    solve_halfline,
)


def main():
    print("== kernel point values ==")
    for s, y in [(1.0, 1.0), (0.5, 0.3), (0.25, 2.0)]:
        print(f"  P({s}, {y}) = {poisson_kernel(s, y):.12f}")
    # parabolic scaling: P(r^2 s, r y) = P(s, y) / r^2
    r = 0.7
    lhs = poisson_kernel(r**2 * 1.0, r * 1.0)
    print(f"  scaling defect at r={r}: {abs(lhs - poisson_kernel(1.0, 1.0) / r**2):.2e}")

    print("== mass defect (should be ~1e-10 or below) ==")
    for y in (0.1, 1.0, 10.0):
        print(f"  y={y:5.1f}: |mass - 1| = {abs(kernel_mass(y) - 1.0):.2e}")

    print("== half-line solve for h(t) = t^2 ==")
    grid = SpaceTimeGrid(dim=1, x1_max=1.5, x1_cells=30, t_max=1.0, steps=4)
    data = BoundaryData.from_power(2, grid.times)
    v = solve_halfline(data, grid)
    w = dt_v(data, grid)
    print(f"  v(1, 1)    = {v.values[0, -1, 20]:.12f}")
    print(f"  dt v(1, 1) = {w.values[0, -1, 20]:.12f}")
    print(f"  wall column reproduces h exactly: {np.array_equal(v.values[0, :, 0], grid.times**2)}")

    # the heat identity, checked with interior second differences
    d2 = finite_diff(v, (2,))
    gap = np.max(np.abs(w.values[0, 2:-2, 1:] - d2.values[0, 2:-2, 1:]))
    print(f"  max |dt v - D11 v| on interior nodes: {gap:.2e}")


if __name__ == "__main__":
    main()
