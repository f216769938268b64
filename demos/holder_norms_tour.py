"""Tour of the stochastic parabolic Holder norm engine.

Builds a few fields with known regularity and reads their norms back:

  1. a linear profile, whose space seminorm is its slope,
  2. the parabolic scaling law: rescaling the grid by lambda in space
     and lambda^2 in time divides the alpha-seminorm by lambda^alpha,
  3. a power-of-time wall trace whose alpha/2 time seminorm is exact,
  4. one Schauder quotient |u| / (|f| + |g|) on a coupled solve.
"""

import numpy as np

from spdelab import (
    Forcing,
    ModelCoefficients,
    NormSpec,
    SeedSpec,
    SpaceTimeGrid,
    FieldEnsemble,
    schauder_ratio,
    solve_model_halfspace,
    space_seminorm,
    sup_norm,
    trace_parabolic_norm,
    wiener_increments,
)

ALPHA = 0.5
SPEC = NormSpec(alpha=ALPHA)


def show(title, result):
    print(f"  {title:<34s} {result.value:12.6f}   ({result.kind}, {result.pairs} pairs)")


def linear_profile():
    grid = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=16, t_max=1.0, steps=4)
    u = FieldEnsemble(np.broadcast_to(3.0 * grid.x1_nodes, (1, 5, 17)).copy(), grid)
    print("linear profile u = 3 x:")
    show("sup norm", sup_norm(u, SPEC))
    show("space seminorm (slope is 3)", space_seminorm(u, SPEC))


def scaling_law():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((1, 9, 17))
    lam = 2.0
    g1 = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=16, t_max=1.0, steps=8)
    g2 = SpaceTimeGrid(dim=1, x1_max=lam, x1_cells=16, t_max=lam**2, steps=8)
    a = space_seminorm(FieldEnsemble(vals.copy(), g1), SPEC).value
    b = space_seminorm(FieldEnsemble(vals.copy(), g2), SPEC).value
    print("parabolic scaling, same nodal values on a (lambda, lambda^2) grid:")
    print(f"  ratio = {a / b:.10f}, lambda^alpha = {lam**ALPHA:.10f}")


def time_regularity():
    # on a dim-1 grid the trace seminorm is the alpha/2 time quotient of the wall column
    grid = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=4, t_max=1.0, steps=64)
    vals = np.zeros((1, grid.steps + 1, grid.n_x1))
    vals[0, :, grid.wall_index] = (1.0 + ALPHA / 2.0) * grid.times ** (ALPHA / 2.0)
    r = trace_parabolic_norm(FieldEnsemble(vals, grid), SPEC)[1].value
    print(f"time seminorm of c t^{{alpha/2}}: {r:.12f} (exact {1.0 + ALPHA / 2.0})")


def one_schauder_quotient():
    grid = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=24, t_max=0.02, steps=128)
    co = ModelCoefficients.make(1, np.array([[1.2]]), np.array([[0.6]]), kappa=0.5)
    shape = (4, grid.steps + 1, grid.n_x1)
    f = FieldEnsemble(np.broadcast_to(np.sin(np.pi * grid.x1_nodes), shape).copy(), grid)
    noise = wiener_increments(SeedSpec(20260821, 11), 4, grid.steps, 1, dt=grid.dt)
    u = solve_model_halfspace(co, Forcing(f=f), grid, noise)
    rep = schauder_ratio(u, f, None, SPEC)
    print(f"schauder quotient: |u|/(|f|+|g|) = {rep.ratio:.6f}")
    print(f"  numerator {rep.lhs:.6f}, denominator {rep.rhs:.6f}")


def main():
    linear_profile()
    scaling_law()
    time_regularity()
    one_schauder_quotient()


if __name__ == "__main__":
    main()
