"""Stability of wall profiles under perturbation of the boundary data.

Two Dirichlet inputs whose slopes stay close produce half-line profiles
whose second space derivative stays close, with constant one:

    lhs = sup over strip nodes of E |D11 v1 - D11 v2|^gamma
    rhs = sup over time of        E |h1'   - h2'  |^gamma

(`stability_gap` evaluates D11 through the time-derivative identity).
The bound is sharp: whenever the worst node sits on the wall, where
dt v coincides with h', the two sides agree exactly and the printed
ratio is 1.  The demonstration shows a deterministic pair and a small
random ensemble.
"""

import argparse

import numpy as np

from spdelab import BoundaryData, SeedSpec, SpaceTimeGrid, stability_gap, standard_normals


def random_pair(grid, paths, seed):
    # smooth random data h(t) = sum_k c_k sin^2(k pi t): both h and h'
    # vanish at t = 0, as the time-derivative profile requires
    z = standard_normals(SeedSpec(seed, 3), np.arange(paths), np.arange(4), np.arange(2))
    t = grid.times
    h1 = np.zeros((paths, t.size))
    h2 = np.zeros((paths, t.size))
    hp1 = np.zeros((paths, t.size))
    hp2 = np.zeros((paths, t.size))
    for k in range(1, 5):
        w = k * np.pi
        amp = 0.1 / k**2
        c1 = z[:, k - 1, :1]
        c2 = c1 + 0.05 * z[:, k - 1, 1:2]
        h1 += amp * c1 * np.sin(w * t) ** 2
        hp1 += amp * w * c1 * np.sin(2.0 * w * t)
        h2 += amp * c2 * np.sin(w * t) ** 2
        hp2 += amp * w * c2 * np.sin(2.0 * w * t)
    mk = lambda h, hp: BoundaryData(h=h, h_prime=hp, times=t, h0_zero=True, hp0_zero=True)
    return mk(h1, hp1), mk(h2, hp2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=int, default=16)
    ap.add_argument("--seed", type=int, default=20260821)
    args = ap.parse_args()

    grid = SpaceTimeGrid(dim=1, x1_max=2.0, x1_cells=24, t_max=1.0, steps=8)

    print("deterministic pair: h1 = t^2 versus h2 = t^2 / 2")
    d1 = BoundaryData.from_power(2, grid.times)
    d2 = BoundaryData.from_power(2, grid.times, scales=[0.5])
    rep = stability_gap(d1, d2, grid, gamma=2.0)
    print(f"  lhs = {rep.lhs:.6f}   rhs = {rep.rhs:.6f}   ratio = {rep.ratio:.4f}")
    print(f"  passed (lhs <= rhs up to tolerance): {rep.passed}")

    print(f"random ensemble, {args.paths} paths, seed {args.seed}")
    r1, r2 = random_pair(grid, args.paths, args.seed)
    rep = stability_gap(r1, r2, grid, gamma=2.0)
    print(f"  lhs = {rep.lhs:.6e}   rhs = {rep.rhs:.6e}   ratio = {rep.ratio:.4f}")
    print(f"  passed: {rep.passed}")


if __name__ == "__main__":
    main()
