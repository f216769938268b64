"""Acceptance gate: twelve criteria over the six canned studies.

Each test prints one pass/fail line (also collected into the terminal
summary).  Studies run once per session through the fixtures below, on
the checked-in configuration files.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from spdelab import (
    FieldEnsemble,
    Forcing,
    ModelCoefficients,
    NormSpec,
    SeedSpec,
    SpaceTimeGrid,
    kernel_mass,
    parabolic_seminorm,
    solve_periodic_line,
    space_seminorm,
    wiener_increments,
)
from spdelab.experiments import ExperimentConfig, run_study

from conftest import assert_matches_golden, record_criterion

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MODE_MOMENT = 0.15163266492815836  # (1/4) e^{-1/2}


def _run(name):
    cfg = ExperimentConfig.from_file(CONFIG_DIR / f"{name}.json")
    t0 = time.perf_counter()
    report = run_study(cfg)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def halfline_report():
    return _run("halfline_lemma")


@pytest.fixture(scope="session")
def stability_report():
    return _run("stability")


@pytest.fixture(scope="session")
def compatibility_report():
    return _run("compatibility")


@pytest.fixture(scope="session")
def schauder_report():
    return _run("schauder_ratio")


@pytest.fixture(scope="session")
def pipeline_report():
    return _run("pipeline")


@pytest.fixture(scope="session")
def continuity_report():
    return _run("continuity")


def rows_of(report, record):
    got = [r for r in report.rows if r["record"] == record]
    assert got, f"study emitted no {record!r} rows"
    return got


def verdict(report, name):
    for v in report.verdicts:
        if v.name == name:
            return v
    raise AssertionError(f"study has no verdict {name!r}")


def check(num, name, ok, detail=""):
    record_criterion(num, name, ok, detail)
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------


def test_criterion_01_kernel_normalization():
    t0 = time.perf_counter()
    defects = {y: abs(kernel_mass(y) - 1.0) for y in (0.1, 1.0, 10.0)}
    elapsed = time.perf_counter() - t0
    worst = max(defects.values())
    check(
        1,
        "kernel_normalization",
        worst <= 1e-8 and elapsed < 1.0,
        f"max defect {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_heat_identity_order(halfline_report):
    report, elapsed = halfline_report
    residuals = [r["value"] for r in sorted(rows_of(report, "heat_residual"), key=lambda r: r["level"])]
    slope = rows_of(report, "heat_order_fit")[0]["value"]
    decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    check(
        2,
        "heat_identity_order",
        len(residuals) == 3 and decreasing and slope >= 1.8 and elapsed < 60.0,
        f"order {slope:.3f} over {len(residuals)} levels, study {elapsed:.1f} s",
    )


def test_criterion_03_boundary_recovery(halfline_report):
    report, _ = halfline_report
    errors = [r["value"] for r in sorted(rows_of(report, "boundary_error"), key=lambda r: r["level"])]
    slope = rows_of(report, "boundary_order_fit")[0]["value"]
    check(
        3,
        "boundary_recovery",
        len(errors) == 4 and slope >= 0.9,
        f"order {slope:.3f} as the probe node halves 4 times",
    )


def test_criterion_04_seminorm_ratio_bounded(halfline_report):
    report, _ = halfline_report
    spreads = {}
    for alpha in (0.25, 0.5, 0.75):
        ratios = [r["value"] for r in rows_of(report, "lemma_ratio") if r["param"] == alpha]
        assert len(ratios) == 2 and all(math.isfinite(r) for r in ratios)
        spreads[alpha] = max(ratios) / min(ratios)
    check(
        4,
        "seminorm_ratio_bounded",
        all(s < 2.0 for s in spreads.values()),
        "spread per alpha " + ", ".join(f"{a}: {s:.3f}" for a, s in spreads.items()),
    )


def test_criterion_05_stability_constant(stability_report):
    report, _ = stability_report
    assert report.config["ensemble"]["paths"] == 1000
    assert report.config["data"]["gamma"] == 2.0
    margins = {}
    for pair in ("deterministic", "random"):
        lhs = [r["value"] for r in rows_of(report, "lhs") if r["param"] == pair][0]
        rhs = [r["value"] for r in rows_of(report, "rhs") if r["param"] == pair][0]
        margins[pair] = (lhs, rhs)
    ok = all(lhs <= 1.05 * rhs for lhs, rhs in margins.values())
    check(
        5,
        "stability_constant",
        ok,
        ", ".join(f"{k}: lhs {l:.3e} vs 1.05*rhs {1.05 * r:.3e}" for k, (l, r) in margins.items()),
    )


def test_criterion_06_mode_moment_oracle():
    t0 = time.perf_counter()
    grid = SpaceTimeGrid(
        dim=1,
        x1_max=2.0 * np.pi,
        x1_cells=32,
        t_max=0.5,
        steps=500,
        periodic_x1=True,
    )
    coeffs = ModelCoefficients.make(1, np.array([[1.0]]), np.array([[1.0]]))
    paths = 10_000
    noise = wiener_increments(
        SeedSpec(master_seed=20260821, stream_salt=6), paths, grid.steps, dt=grid.dt
    )
    u0 = np.broadcast_to(np.cos(grid.x1_nodes), (paths, grid.n_x1)).copy()
    u_end = solve_periodic_line(coeffs, Forcing(), grid, noise, u0=u0)
    estimate = float(np.mean(np.abs(np.fft.rfft(u_end, axis=1)[:, 1] / grid.n_x1) ** 2))
    rel = abs(estimate - MODE_MOMENT) / MODE_MOMENT
    elapsed = time.perf_counter() - t0
    check(
        6,
        "mode_moment_oracle",
        rel <= 0.05 and elapsed < 120.0,
        f"relative error {rel:.4f} at {paths} paths, {elapsed:.1f} s",
    )


def test_criterion_07_compatibility_dichotomy(compatibility_report):
    report, _ = compatibility_report
    tang = verdict(report, "tangential_bounded")
    grow = verdict(report, "violating_growth")
    # the probe set spans delta = x1_max * 2^{-3} .. 2^{-7}
    x1_max = report.config["grid"]["x1_max"]
    deltas = sorted({r["param"] for r in rows_of(report, "profile")}, reverse=True)
    expected = [x1_max * 2.0**-k for k in range(3, 8)]
    assert np.allclose(deltas, expected)
    check(
        7,
        "compatibility_dichotomy",
        tang.passed and grow.passed,
        f"{tang.detail}; violating strictly grows: {grow.passed}",
    )


def test_criterion_08_schauder_ratio_stability(schauder_report):
    report, _ = schauder_report
    ratio_rows = [r for r in rows_of(report, "ratio") if r["index"] != "zero"]
    finite = all(math.isfinite(r["value"]) for r in ratio_rows)
    stable = [verdict(report, f"ratio_stable_draw_{d}").passed for d in range(5)]
    scaling = [verdict(report, f"scaling_invariance_draw_{d}").passed for d in range(5)]
    rels = [r["value"] for r in rows_of(report, "scaling_rel_diff")]
    check(
        8,
        "schauder_ratio_stability",
        finite and all(stable) and all(scaling),
        f"5 draws over 3 levels, worst scaling drift {max(rels):.2e}",
    )


def test_criterion_09_pipeline_cancellation(pipeline_report):
    report, _ = pipeline_report
    residuals = [
        r["value"] for r in sorted(rows_of(report, "wall_residual"), key=lambda r: r["level"])
    ]
    decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    h0 = max(r["value"] for r in rows_of(report, "h_initial_max"))
    slope = max(r["value"] for r in rows_of(report, "h_slope_defect"))
    check(
        9,
        "pipeline_cancellation",
        len(residuals) == 3 and decreasing and h0 == 0.0 and slope == 0.0,
        "residuals " + ", ".join(f"{r:.2e}" for r in residuals) + f"; H checks exact {max(h0, slope):.1e}",
    )


def test_criterion_10_continuity_contraction(continuity_report):
    report, _ = continuity_report
    ratios = [r["value"] for r in sorted(rows_of(report, "ratio"), key=lambda r: r["index"])]
    contracting = all(r < 1.0 for r in ratios)
    spread = max(ratios) / min(ratios)
    check(
        10,
        "continuity_contraction",
        len(ratios) == 5 and contracting and spread <= 1.25,
        f"ratios in [{min(ratios):.4f}, {max(ratios):.4f}], spread {spread:.4f}",
    )


def test_criterion_11_worker_determinism(stability_report):
    report, _ = stability_report
    cfg = ExperimentConfig.from_file(CONFIG_DIR / "stability.json")
    again = run_study(cfg, workers=2)
    same = again.canonical_csv() == report.canonical_csv()
    check(
        11,
        "worker_determinism",
        same,
        f"{len(report.canonical_csv())} CSV bytes identical across worker counts",
    )


def test_criterion_12_norm_unit_suite():
    grid = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=6, t_max=1.0, steps=4)
    shape = (1, grid.steps + 1, grid.n_x1)
    spec = NormSpec(alpha=0.5)

    const = FieldEnsemble(np.full(shape, 2.0), grid)
    zero_semis = (
        space_seminorm(const, spec).value == 0.0
        and parabolic_seminorm(const, spec).value == 0.0
    )

    vals = np.random.default_rng(12).normal(size=shape)
    f = FieldEnsemble(vals, grid)
    cf = FieldEnsemble(-3.0 * vals, grid)
    a, b = parabolic_seminorm(f, spec).value, parabolic_seminorm(cf, spec).value
    homogeneous = abs(b - 3.0 * a) <= 1e-12 * 3.0 * a

    dyadic = parabolic_seminorm(f, NormSpec(alpha=0.5, pair_policy="dyadic")).value
    monotone = dyadic <= a * (1.0 + 1e-15)

    lam = 2.0
    scaled_grid = SpaceTimeGrid(
        dim=1, x1_max=lam * 1.0, x1_cells=6, t_max=lam * lam * 1.0, steps=4
    )
    c = parabolic_seminorm(FieldEnsemble(vals.copy(), scaled_grid), spec).value
    scaling = abs(a / c - lam**spec.alpha) <= 1e-12 * lam**spec.alpha

    check(
        12,
        "norm_unit_suite",
        zero_semis and homogeneous and monotone and scaling,
        f"zero: {zero_semis}, homogeneity: {homogeneous}, "
        f"pair monotone: {monotone}, scaling: {scaling}",
    )


# Canonical-CSV SHA-256 of the checked-in studies; read from the session
# fixtures above, so no study runs twice.  tests/golden holds each pinned
# text, so a moved pin names its rows; re-pinning edits digest and file together.
@pytest.mark.parametrize(
    "fixture, digest",
    [
        (
            "continuity_report",
            "15800119831b7490a5613e60b8d16c942eae9995313a252da140c15951698702",
        ),
        (
            "stability_report",
            "e735df51af452aa51a0092d907c570f6aca4e94d656d63f3dedec018573f2ce3",
        ),
        (
            "halfline_report",
            "21e6b9658087c761dc0f272aae8dfa952c553f050452deb02c8bc892ab932513",
        ),
        (
            "schauder_report",
            "d9a8dc4c2bd1f134e845ca76a9b73363cc98df8d933cc485c32f6639ae5c4e35",
        ),
        (
            "compatibility_report",
            "2c8916a1f2b31e7545b9cd152ce205d936f6643cfa8270e5ab593a58be8525a2",
        ),
        (
            "pipeline_report",
            "187f60c37013da074304165011007a2b95b59755873318a3322db7eb8c4a9979",
        ),
    ],
)
def test_checked_in_study_bytes_are_pinned(request, fixture, digest):
    report, _ = request.getfixturevalue(fixture)
    text = report.canonical_csv()
    assert_matches_golden(text, f"{report.study}.csv", digest)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_checked_in_schauder_norm_rows_are_pinned(schauder_report):
    # every norm value, argmax pair and pair count of the full-size study
    report, _ = schauder_report
    text, digest = report.norms_csv(), "70bfc506a0a1daa9dd926688df63654d32e9f62a32cdca33181cdd08303d9ac7"
    assert_matches_golden(text, "schauder_ratio_norms.csv", digest)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
