"""Study harness: configs, canonical output, determinism, CLI wiring."""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import spdelab
from spdelab import (
    FieldEnsemble,
    NormSpec,
    SpaceTimeGrid,
    dt_v,
    experiments,
    halfline,
    pipeline,
    schauder_ratio,
    space_seminorm,
    stability_gap,
    sup_norm,
)
from spdelab.cli import build_parser, main
from spdelab.experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    StudyReport,
    run_study,
    _stability_pairs,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

TINY_STABILITY = {
    "experiment": "stability",
    "grid": {"dim": 1, "x1_max": 1.0, "x1_cells": 6, "t_max": 1.0, "steps": 4},
    "data": {"gamma": 2.0},
    "ensemble": {"paths": 8, "master_seed": 99},
}


def tiny_config():
    return ExperimentConfig.from_dict(json.loads(json.dumps(TINY_STABILITY)))


# -- configuration parsing --------------------------------------------


def test_every_study_is_registered():
    assert set(EXPERIMENTS) == {
        "halfline_lemma",
        "stability",
        "compatibility",
        "schauder_ratio",
        "pipeline",
        "continuity",
    }


def test_unknown_experiment_is_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig.from_dict({"experiment": "turbulence"})


def test_bad_grid_block_is_rejected():
    cfg = tiny_config()
    cfg.raw["grid"] = {"dim": 1, "x1_max": 1.0}
    with pytest.raises(ConfigError, match="grid"):
        cfg.validate()


def test_missing_coefficient_key_is_rejected():
    cfg = ExperimentConfig.from_dict(_checked_in("continuity"))
    cfg.raw["coefficients"] = {"a": [[1.0]]}
    with pytest.raises(ConfigError, match=re.escape("missing coefficients key(s) ['sigma']")):
        cfg.validate()


@pytest.mark.parametrize(
    "a, expected",
    [([[1.9, 0.0]], r"a must have shape \(1, 1\)"), ([[1.9], [0.0, 1.0]], "inhomogeneous")],
)
def test_misshapen_coefficients_are_a_config_error(a, expected):
    cfg = ExperimentConfig.from_dict(_checked_in("continuity"))
    cfg.raw["coefficients"] = {"a": a, "sigma": [[0.5]]}
    with pytest.raises(ConfigError, match=expected):
        cfg.validate()


def test_validate_runs_parabolicity_gate():
    cfg = ExperimentConfig.from_dict(_checked_in("continuity"))
    cfg.raw["coefficients"] = {"a": [[0.4]], "sigma": [[1.0]], "kappa": 1.0}
    with pytest.raises(ConfigError, match="parabolicity"):
        cfg.validate()


def test_validate_runs_tangency_gate_for_wall_studies():
    raw = {
        "experiment": "pipeline",
        "grid": {
            "dim": 2,
            "x1_max": 1.0,
            "x1_cells": 8,
            "t_max": 0.001,
            "steps": 4,
            "xp_max": 1.0,
            "xp_cells": 4,
        },
        "coefficients": {"a": [[1.0, 0.0], [0.0, 1.0]], "sigma": [[0.5], [0.0]], "kappa": 0.5},
    }
    with pytest.raises(ConfigError, match="tangency"):
        ExperimentConfig.from_dict(raw).validate()


def test_validate_builds_no_time_axis():
    # the constant coefficients are checked at t_0 alone: a time axis of
    # 2^22 + 1 nodes takes 32 MiB, and one of 2^36 + 1 nodes 512 GiB
    cfg = ExperimentConfig.from_dict(_checked_in("continuity", steps=2**22))
    tracemalloc.start()
    try:
        cfg.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_compatibility_study_needs_aligned_profile_nodes():
    raw = {
        "experiment": "compatibility",
        "grid": {
            "dim": 2,
            "x1_max": 1.0,
            "x1_cells": 64,
            "t_max": 0.0001,
            "steps": 4,
            "xp_max": 1.0,
            "xp_cells": 4,
        },
        "coefficients": {
            "a": [[1.0, 0.0], [0.0, 1.0]],
            "sigma_tangential": [[0.0], [0.5]],
            "sigma_violating": [[0.5], [0.0]],
            "kappa": 0.5,
        },
        "ensemble": {"paths": 1},
    }
    with pytest.raises(ConfigError, match="divisible by 128"):
        run_study(ExperimentConfig.from_dict(raw))


def _checked_in(study, **grid):
    raw = json.loads((CONFIGS / f"{study}.json").read_text())
    raw["grid"].update(grid)
    return raw


@pytest.mark.parametrize(
    "raw, message",
    [
        (
            dict(
                _checked_in("continuity", dim=2, xp_max=1.0, xp_cells=4),
                coefficients={"a": [[1.9, 0.0], [0.0, 1.9]], "sigma": [[0.0], [0.5]], "kappa": 0.5},
            ),
            "needs a dim-1 grid",
        ),
        (
            dict(
                _checked_in("compatibility", dim=1, xp_max=0.0, xp_cells=0),
                coefficients={
                    "a": [[2.5]],
                    "sigma_tangential": [[0.0]],
                    "sigma_violating": [[0.7]],
                    "kappa": 1.0,
                    "bound": 6.0,
                },
            ),
            "needs a dim-2 grid",
        ),
        (_checked_in("compatibility", x1_cells=96), "divisible by 128"),
        (_checked_in("halfline_lemma", dim=2, xp_max=1.0, xp_cells=4), "needs a dim-1 grid"),
        # D11's one-sided closure reads 4 nodes; finite_diff would raise after the solves
        (_checked_in("schauder_ratio", x1_cells=2), "needs x1_cells >= 3, got 2"),
        (_checked_in("halfline_lemma", x1_cells=2), "needs x1_cells >= 3, got 2"),
        (_checked_in("pipeline", x1_cells=2), "needs x1_cells >= 3, got 2"),
        # 257 x 513 nodes at level 2; _stencil_max would raise after the solves
        (
            dict(_checked_in("halfline_lemma", x1_cells=128, steps=16),
                 data={"pair_policy": "exhaustive"}),
            "131841 space-time nodes, past the exhaustive budget 20000",
        ),
        # the checked-in policy at a fourth level (129 x 513 nodes); no level turns dyadic
        (
            dict(_checked_in("halfline_lemma"), levels=4),
            "66177 space-time nodes, past the exhaustive budget 20000",
        ),
    ],
    ids=[
        "continuity-dim2", "compatibility-dim1", "compatibility-x1-cells", "halfline-dim2",
        "schauder-x1-2", "halfline-x1-2", "pipeline-x1-2", "halfline-exhaustive-budget",
        "halfline-levels-4",
    ],
)
def test_validate_checks_the_grid_the_study_needs(raw, message, tmp_path, capsys):
    # each config passes every coefficient check; only its grid is wrong
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict(raw).validate()
    assert main(["validate", "--config", write_config(tmp_path, raw)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "study, steps", [("compatibility", 4096), ("continuity", 5000), ("schauder_ratio", 8)]
)
def test_validate_refuses_a_step_past_the_noise_bound(study, steps, tmp_path, capsys):
    # the run would end in the solver's ModelError; the gate refuses it first
    raw = _checked_in(study, steps=steps)
    with pytest.raises(ConfigError, match="noise stability"):
        ExperimentConfig.from_dict(raw).validate()
    assert main(["validate", "--config", write_config(tmp_path, raw)]) == 1
    assert "noise stability" in capsys.readouterr().err


def _tiny_run(study, grid, ensemble, data=None):
    """run_study of a checked-in config on another grid, warnings as errors."""
    raw = _checked_in(study, **grid)
    raw["ensemble"].update(ensemble)
    raw["data"].update(data or {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_study(ExperimentConfig.from_dict(raw))


def test_continuity_reports_an_exact_zero_difference_as_a_sentinel():
    # the differences are 1.9e-17, 8.0e-27 and then exactly 0.0, so the
    # last ratio is 0 and the ratio spread divides by it
    rep = _tiny_run(
        "continuity", {"x1_max": 10.0, "x1_cells": 5, "t_max": 1e-4, "steps": 3},
        {"paths": 2}, {"iterations": 4},
    )
    assert [r["value"] for r in rep.rows if r["record"] == "diff"][-1] == 0.0
    assert [r["value"] for r in rep.rows if r["record"] == "ratio"][-1] == 0.0
    assert [(r["index"], r["value"]) for r in rep.rows if r["record"] == "sentinel"] == [
        ("spread", "x/0")
    ]
    assert [v.name for v in rep.verdicts if not v.passed] == ["ratio_constancy"]


def test_compatibility_reports_a_zero_profile_minimum_as_a_sentinel():
    # at t_max 1e-4 the profile is exactly 0 at the farthest probe node, x1 = 1.25
    rep = _tiny_run("compatibility", {"x1_max": 10.0, "t_max": 1e-4, "steps": 8}, {"paths": 2})
    profile = [r["value"] for r in rep.rows if r["record"] == "profile"]
    assert profile[0] == 0.0 < min(profile[1:5])
    assert rep.rows[-1] == {
        "record": "sentinel", "level": None, "param": None, "index": "tangential", "value": "x/0"
    }
    assert "max/min nan" in rep.verdicts[0].detail and not rep.verdicts[0].passed


def test_continuity_bound_is_that_of_the_frozen_operator():
    # dt = 7.5e-5 breaks the bound of a = 1.9 (7.31e-5) but not that of
    # the s0 = 0.9 operator the continuation steps (7.67e-5)
    ExperimentConfig.from_dict(_checked_in("continuity", steps=10000)).validate()


def test_config_accessors_and_overrides():
    # validate() reads the raw blocks afresh, so an edit to them lands in the accessors
    cfg = tiny_config()
    cfg.validate()
    assert cfg.n_paths == 8 and cfg.n_levels == 1 and cfg.seed.master_seed == 99
    cfg.raw["ensemble"].update(master_seed=7, paths=3)
    cfg.raw["grid"]["steps"] = 8
    cfg.validate()
    assert cfg.seed.master_seed == 7 and cfg.n_paths == 3
    assert cfg.n_levels == 1 and cfg.grids == [cfg.grid] and cfg.grid.steps == 8
    # a study that scans levels reads them the same way
    cfg = ExperimentConfig.from_dict(_checked_in("halfline_lemma"))
    cfg.raw["levels"] = 2
    cfg.validate()
    assert cfg.n_levels == 2 and len(cfg.grids) == 2


# -- report and determinism -------------------------------------------


def test_stability_report_shape():
    rep = run_study(tiny_config())
    assert rep.study == "stability"
    assert {v.name for v in rep.verdicts} == {"stability_deterministic", "stability_random"}
    assert rep.n_failed == 0
    records = {r["record"] for r in rep.rows}
    assert records == {"lhs", "rhs", "ratio"}
    assert rep.wall_clock > 0.0


def test_stability_gap_holds_at_interior_nodes():
    # criterion 5 takes its sup over the wall column too, where dt_v is
    # h' exactly and lhs == rhs; the interior nodes must obey the bound
    # on their own (ratio about 0.75 and 0.87, both at node (64, 1))
    config = Path(__file__).resolve().parent.parent / "configs" / "stability.json"
    cfg = ExperimentConfig.from_dict(json.loads(config.read_text()))
    cfg.validate()
    grid, gamma = cfg.grid, cfg.data["gamma"]
    for name, (d1, d2) in _stability_pairs(grid, cfg.seed, cfg.n_paths).items():
        rep = stability_gap(d1, d2, grid, gamma=gamma)
        gap = dt_v(d1, grid).values - dt_v(d2, grid).values
        interior = np.mean(np.abs(gap[:, :, 1:]) ** gamma, axis=0)
        assert np.max(interior) <= rep.rhs, name


def test_rerun_is_byte_identical():
    a = run_study(tiny_config()).canonical_csv()
    b = run_study(tiny_config()).canonical_csv()
    assert a == b


def test_worker_count_does_not_change_the_csv():
    a = run_study(tiny_config(), workers=1).canonical_csv()
    b = run_study(tiny_config(), workers=2).canonical_csv()
    assert a == b


def test_different_seed_changes_the_random_rows():
    cfg2 = tiny_config()
    cfg2.raw["ensemble"]["master_seed"] = 100
    a = run_study(tiny_config()).canonical_csv()
    b = run_study(cfg2).canonical_csv()
    assert a != b


def test_schauder_ratio_output_bytes_are_pinned():
    # levels 2 and 2 draws of the checked-in config at its default seed;
    # _norms.csv carries the argmax pairs and pair counts of every norm
    config = Path(__file__).resolve().parent.parent / "configs" / "schauder_ratio.json"
    raw = json.loads(config.read_text())
    raw["levels"] = 2
    raw["data"]["draws"] = 2
    rep = run_study(ExperimentConfig.from_dict(raw))
    assert all(v.passed for v in rep.verdicts)
    digest = {
        "csv": hashlib.sha256(rep.canonical_csv().encode()).hexdigest(),
        "norms": hashlib.sha256(rep.norms_csv().encode()).hexdigest(),
    }
    assert digest == {
        "csv": "6ccf22f329da0d7c3da60c8a02f3f34c2e97fb0aa8b67bcdf4b69b2afd0aa361",
        "norms": "e7aa67f38ab4ef82503d3b35de4d8b438ab74a10803bbb6fb240e50178f84c58",
    }


@pytest.mark.parametrize(
    "study, grid, digest, blocks, failing",
    [
        # the lockstep continuation loop (continuity_iterates) on a 1-D wall grid
        (
            "continuity",
            {"x1_cells": 9, "steps": 1512},
            "d6002805ddd6d626f730067c236da594d9aa99e1a574aa9b50a2102752fd7c32",
            {},
            [],
        ),
        # 2-D solves, the additive heat solve, the decomposition and its kernel check
        (
            "pipeline",
            {"t_max": 0.0125, "steps": 32},
            "15407d19f76cad6737b346bcf89f6054c6a6854dd66c04e390c74d8eebcf781d",
            {},
            [],
        ),
        # both noise variants on the 128 x 8 wall grid, with the violating g
        (
            "compatibility",
            {"x1_max": 1.0, "t_max": 0.0075, "steps": 2560},
            "04f9aaabd2a40f99eed69658a13bd05c4211e31948ddb8def639cb679abb5b88",
            {"ensemble": {"paths": 8}},
            [],
        ),
        # two modes, each silent in one variant: that variant adds no term for it
        (
            "compatibility",
            {"x1_max": 1.0, "t_max": 0.000192, "steps": 64, "xp_cells": 4},
            "6b69bb4097525c972e62aaf9e2eb541deaa550161999f7e658ae25c03cd4edd6",
            {
                "ensemble": {"paths": 2},
                "coefficients": {
                    "sigma_tangential": [[0.0, 0.0], [0.7, 0.0]],
                    "sigma_violating": [[0.7, 0.0], [0.0, 0.0]],
                },
            },
            ["tangential_bounded"],
        ),
    ],
)
def test_reduced_study_output_bytes_are_pinned(study, grid, digest, blocks, failing):
    config = Path(__file__).resolve().parent.parent / "configs" / f"{study}.json"
    raw = json.loads(config.read_text())
    raw["grid"].update(grid)
    for name, values in blocks.items():
        raw[name].update(values)
    raw["ensemble"]["master_seed"] = 20260821
    rep = run_study(ExperimentConfig.from_dict(raw))
    assert [v.name for v in rep.verdicts if not v.passed] == failing
    assert hashlib.sha256(rep.canonical_csv().encode()).hexdigest() == digest


def test_csv_layout_is_canonical():
    rep = run_study(tiny_config())
    lines = rep.canonical_csv().splitlines()
    assert lines[0] == "study,record,level,param,index,value"
    assert all(line.count(",") == 5 for line in lines)
    # verdict rows close the file, one per verdict, value 1 on pass
    tail = lines[-len(rep.verdicts) :]
    assert all(line.split(",")[1].startswith("verdict_") for line in tail)
    assert all(line.endswith(",1.0") for line in tail)


def test_norms_csv_writes_one_row_of_ten_columns_per_norm():
    g = SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=4, t_max=1.0, steps=2)
    f = FieldEnsemble(np.broadcast_to(g.x1_nodes**2, (1, 3, 5)).copy(), g)
    rep = StudyReport("schauder_ratio", {}, 42)
    assert rep.norms_csv() is None
    spec = NormSpec(alpha=0.5)
    sup, semi = sup_norm(f, spec), space_seminorm(f, spec, 1)
    rep.norm_rows += [("u", "L0", sup), ("u", "L0", semi)]
    lines = rep.norms_csv().splitlines()
    assert lines[0] == "field_id,m,alpha,gamma,kind,value,argmax_pair,pairs_evaluated,grid_id,seed"
    # the commas of an argmax pair become ';', so every row keeps its ten cells
    pairs = [str(r.argmax).replace(",", ";") for r in (sup, semi)]
    assert lines[1:] == [
        f"u,0,0.5,2.0,sup,1.0,{pairs[0]},0,L0,42",
        f"u,1,0.5,2.0,space_seminorm[exhaustive],2.0,{pairs[1]},30,L0,42",
    ]
    assert "," in str(semi.argmax) and all(line.count(",") == 9 for line in lines)


@pytest.mark.parametrize("policy", ["exhaustive", "dyadic"])
def test_argmax_pairs_hold_plain_ints(policy):
    # numpy 2 prints an np.int64 index as np.int64(3) and numpy 1 as 3; plain
    # ints give the same argmax_pair cells under every numpy the package admits
    g = SpaceTimeGrid(dim=2, x1_max=1.0, x1_cells=3, t_max=1.0, steps=2, xp_max=1.0, xp_cells=4)
    f = FieldEnsemble(np.random.default_rng(2).normal(size=(2, 3, 4, 4)), g)
    results = schauder_ratio(f, f, f, NormSpec(alpha=0.5, pair_policy=policy)).results
    rep = StudyReport("schauder_ratio", {}, 42)
    rep.norm_rows += [("f", "L0", r) for r in results]

    def leaves(a):
        return [x for b in a for x in leaves(b)] if isinstance(a, tuple) else [a]

    indices = [i for r in results for i in leaves(r.argmax)]
    assert len(indices) > 2 * len(results) and all(type(i) is int for i in indices)
    assert "np." not in rep.norms_csv()


def test_report_write_produces_files(tmp_path):
    rep = run_study(tiny_config())
    rep.flags = {"workers": 1}
    page, statm = os.sysconf("SC_PAGE_SIZE") / 2**20, Path("/proc/self/statm")
    # resident pages (Linux), read before the sidecar takes the peak
    held = int(statm.read_text().split()[1]) * page if statm.exists() else 1.0
    paths = rep.write(tmp_path)
    csv = (tmp_path / "stability.csv").read_text()
    assert csv == rep.canonical_csv()
    sidecar = json.loads((tmp_path / "stability_run.json").read_text())
    assert sidecar["study"] == "stability"
    assert sidecar["config"] == TINY_STABILITY
    assert sidecar["seed"] == 99 and "salt" not in sidecar
    assert sidecar["flags"] == {"workers": 1}
    assert sidecar["wall_clock_seconds"] > 0.0
    assert sidecar["version"] == spdelab.__version__
    assert (sidecar["numpy"], sidecar["scipy"]) == (np.__version__, scipy.__version__)
    # this process's peak so far in MB, not KiB or bytes: at least what it held before,
    # less a few MB of the kernel's batched page counts, and at most the machine's memory
    assert held - 4.0 <= sidecar["peak_rss_mb"] <= os.sysconf("SC_PHYS_PAGES") * page
    assert len(sidecar["verdicts"]) == 2
    assert all(v["passed"] for v in sidecar["verdicts"])
    assert set(paths) == {"csv", "sidecar"}


# -- command line -----------------------------------------------------


def write_config(tmp_path, raw=TINY_STABILITY):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    return str(p)


def test_cli_runs_a_study_and_exits_zero(tmp_path):
    code = main(["stability", "--config", write_config(tmp_path), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "stability.csv").exists()
    assert (tmp_path / "stability_run.json").exists()


@pytest.mark.parametrize("study", sorted(EXPERIMENTS))
def test_a_study_takes_only_its_config_out_and_workers(study, tmp_path, capsys):
    # the configuration file sets the seed, paths and levels; no flag overrides them
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for a in sub.choices[study]._actions for s in a.option_strings}
    assert options == {"-h", "--help", "--config", "--out", "--workers"}
    for flag in ("--seed", "--salt", "--paths", "--levels"):
        with pytest.raises(SystemExit) as exit_info:
            main([study, "--config", write_config(tmp_path), "--out", str(tmp_path), flag, "3"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_the_exit_status_of_a_study_is_capped_below_256(tmp_path, monkeypatch):
    # the OS keeps a status mod 256: 256 failed verdicts must not exit 0
    def all_failing(config, workers):
        report = StudyReport("stability", config.raw, 0)
        for d in range(256):
            report.verdict(f"draw_{d}", False, "")
        return report

    monkeypatch.setattr("spdelab.cli.run_study", all_failing)
    assert main(["stability", "--config", write_config(tmp_path), "--out", str(tmp_path)]) == 255


def test_the_wall_clock_starts_after_the_gate(monkeypatch):
    # the model studies import the solver in validate(); the sidecar's time holds no import
    validate = ExperimentConfig.validate

    def slow_validate(config):
        time.sleep(0.3)
        return validate(config)

    monkeypatch.setattr(ExperimentConfig, "validate", slow_validate)
    start = time.perf_counter()
    report = run_study(tiny_config())
    assert report.wall_clock <= time.perf_counter() - start - 0.3


def test_a_run_without_out_writes_into_the_working_directory(tmp_path, monkeypatch):
    # no environment variable chooses the output directory
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.setenv("SPDELAB_OUT", str(elsewhere))
    monkeypatch.chdir(tmp_path)
    assert main(["stability", "--config", write_config(tmp_path)]) == 0
    assert (tmp_path / "stability.csv").exists() and (tmp_path / "stability_run.json").exists()
    assert list(elsewhere.iterdir()) == []


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_refuses_fewer_than_one_worker(workers, tmp_path, capsys):
    argv = ["stability", "--config", write_config(tmp_path), "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--workers", workers])
    assert exit_info.value.code != 0
    assert "--workers: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "stability_run.json").exists()


def test_cli_rejects_mismatched_subcommand(tmp_path, capsys):
    code = main(["pipeline", "--config", write_config(tmp_path), "--out", str(tmp_path)])
    assert code == 1
    assert "stability" in capsys.readouterr().err


def test_cli_validate_subcommand(tmp_path, capsys):
    assert main(["validate", "--config", write_config(tmp_path)]) == 0
    assert "admissible" in capsys.readouterr().out
    bad = dict(TINY_STABILITY, experiment="nonsense")
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", "--config", str(p)]) == 1


@pytest.mark.parametrize("command", ["validate", "stability"])
def test_cli_rejects_a_config_that_is_not_an_object(command, tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text("[]")
    argv = [command, "--config", str(p)]
    if command == "stability":
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 1
    assert "JSON object, got list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment", [["stability"], {"name": "stability"}], ids=["list", "object"]
)
@pytest.mark.parametrize("command", ["validate", "stability"])
def test_cli_refuses_an_experiment_that_is_not_a_name(command, experiment, tmp_path, capsys):
    # neither can key the registry; each is refused as an unknown name, not a traceback
    raw = dict(TINY_STABILITY, experiment=experiment)
    argv = [command, "--config", write_config(tmp_path, raw)]
    if command == "stability":
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    prefix = "invalid:" if command == "validate" else "configuration error:"
    assert err.startswith(f"{prefix} unknown experiment {experiment!r}")
    assert not (tmp_path / "stability.csv").exists()


@pytest.mark.parametrize(
    "ensemble, message",
    [
        ({"paths": "abc"}, "ensemble.paths must be an integer"),
        ({"paths": 0}, "ensemble.paths must be at least 1"),
        ({"master_seed": -1}, "master_seed"),
    ],
    ids=["paths-text", "paths-zero", "seed-negative"],
)
def test_cli_reports_malformed_ensemble_values(ensemble, message, tmp_path, capsys):
    raw = json.loads(json.dumps(TINY_STABILITY))
    raw["ensemble"].update(ensemble)
    code = main(["stability", "--config", write_config(tmp_path, raw), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert not (tmp_path / "stability.csv").exists()


def test_cli_reports_a_config_error_raised_inside_the_study(tmp_path, capsys):
    # loading accepts the file; building the coefficients rejects the shape
    config = Path(__file__).resolve().parent.parent / "configs" / "continuity.json"
    raw = json.loads(config.read_text())
    raw["coefficients"]["a"] = [[1.9, 0.0]]
    p = tmp_path / "continuity.json"
    p.write_text(json.dumps(raw))
    assert main(["continuity", "--config", str(p), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "(1, 1)" in err
    assert not (tmp_path / "continuity.csv").exists()


@pytest.mark.parametrize("study", ["halfline_lemma", "pipeline"])
def test_refinement_studies_need_two_levels(study, tmp_path, capsys, monkeypatch):
    # one level leaves no trend to fit; the gate refuses it before any compute
    def unreachable(*args):
        """Stand-in body; the parser takes its help text from here."""
        raise AssertionError("the study body ran")

    monkeypatch.setitem(EXPERIMENTS, study, replace(EXPERIMENTS[study], body=unreachable))
    raw = json.loads((CONFIGS / f"{study}.json").read_text())
    raw["levels"] = 1
    cfg = write_config(tmp_path, raw)
    assert main(["validate", "--config", cfg]) == 1
    assert "needs levels >= 2" in capsys.readouterr().err
    assert main([study, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "needs levels >= 2" in err
    assert not (tmp_path / f"{study}.csv").exists()


@pytest.mark.parametrize("ensemble", [[1], "x"], ids=["list", "text"])
def test_cli_refuses_an_ensemble_block_that_is_not_an_object(ensemble, tmp_path, capsys):
    raw = dict(TINY_STABILITY, ensemble=ensemble)
    cfg = write_config(tmp_path, raw)
    assert main(["stability", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: the ensemble block must be an object, got ")
    assert not (tmp_path / "stability.csv").exists()


@pytest.mark.parametrize(
    "data, message",
    [(None, "the data block must be an object, got NoneType"), ({"gamma": "abc"}, "data.gamma")],
    ids=["data-null", "gamma-text"],
)
def test_cli_reports_malformed_data_values(data, message, tmp_path, capsys):
    raw = dict(TINY_STABILITY, data=data)
    code = main(["stability", "--config", write_config(tmp_path, raw), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert not (tmp_path / "stability.csv").exists()


@pytest.mark.parametrize(
    "study, key",
    [
        ("compatibility", "g_violating_amplitude"),
        ("pipeline", "f_amplitude"),
        ("continuity", "f_amplitude"),
    ],
)
def test_data_numbers_are_read_before_any_noise_is_drawn(study, key, tmp_path, capsys, monkeypatch):
    # the body parses its data block first, so a malformed value costs no compute
    def unreachable(*args, **kwargs):
        raise AssertionError("noise was drawn before the data block was read")

    monkeypatch.setattr(experiments, "wiener_increments", unreachable)
    raw = json.loads((CONFIGS / f"{study}.json").read_text())
    raw.setdefault("data", {})[key] = "abc"
    code = main([study, "--config", write_config(tmp_path, raw), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"data.{key}" in err
    assert not (tmp_path / f"{study}.csv").exists()


def test_the_pipeline_takes_no_kernel_check_level(tmp_path, capsys):
    # the kernel cross-check always runs on the coarsest level; no key selects it
    raw = json.loads((CONFIGS / "pipeline.json").read_text())
    raw["data"]["kernel_check_level"] = 0
    assert main(["validate", "--config", write_config(tmp_path, raw)]) == 1
    assert "unknown data key(s) ['kernel_check_level']" in capsys.readouterr().err


def test_kernel_check_runs_at_the_coarsest_level_only():
    raw = json.loads((CONFIGS / "pipeline.json").read_text())
    raw["grid"].update(t_max=0.0125, steps=32)
    raw["levels"] = 2
    rep = run_study(ExperimentConfig.from_dict(raw))
    assert [row["level"] for row in rep.rows if row["record"] == "kernel_gap"] == [0]


def test_the_pipeline_runs_the_ladder_the_gate_checked(monkeypatch):
    # pipeline holds x' fixed and schauder_ratio refines it; the pipeline
    # decomposes on exactly the grids that validate() checked
    raw = json.loads((CONFIGS / "pipeline.json").read_text())
    raw["grid"].update(t_max=0.0125, steps=32)
    config, seen = ExperimentConfig.from_dict(raw), []
    decompose = pipeline.decompose_pipeline

    def recording(coeffs, f, grid, noise, **kwargs):
        seen.append(grid)
        return decompose(coeffs, f, grid, noise, **kwargs)

    monkeypatch.setattr(pipeline, "decompose_pipeline", recording)  # the name the body imports
    run_study(config)
    assert seen == config.grids
    cells = [(g.x1_cells, g.xp_cells, g.steps) for g in seen]
    assert cells == [(32, 8, 32), (64, 8, 128), (128, 8, 512)]
    schauder = ExperimentConfig.from_dict(_checked_in("schauder_ratio"))
    schauder.validate()
    assert [g.xp_cells for g in schauder.grids] == [6, 12, 24]


@pytest.mark.parametrize(
    "study, edit, message",
    [
        ("stability", {"levle": 2}, "unknown configuration key(s) ['levle']"),
        ("continuity", {"grid": {"x1_cell": 9}}, "unknown grid key(s) ['x1_cell']"),
        ("pipeline", {"coefficients": {"kapa": 0.5}}, "unknown coefficients key(s) ['kapa']"),
        ("schauder_ratio", {"ensemble": {"path": 8}}, "unknown ensemble key(s) ['path']"),
        ("compatibility", {"data": {"f_amplitud": 1.0}}, "unknown data key(s) ['f_amplitud']"),
        ("schauder_ratio", {"data": {"alpha": 1.5}}, "alpha must be in (0, 1), got 1.5"),
        ("halfline_lemma", {"data": {"alpha": []}}, "data.alpha must be a non-empty list"),
        ("schauder_ratio", {"data": {"pair_policy": "sparse"}}, "unknown pair policy 'sparse'"),
        (
            "halfline_lemma", {"data": {"pair_policy": "auto"}},
            "bad data block: unknown pair policy 'auto'",
        ),
        ("stability", {"data": {"gamma": 1.0}}, "gamma must be at least 2, got 1.0"),
        ("schauder_ratio", {"data": {"draws": 0}}, "data.draws must be at least 1, got 0"),
        ("continuity", {"data": {"iterations": 2}}, "data.iterations must be at least 3, got 2"),
        ("stability", {"data": {"gamma": math.nan}}, "data.gamma must be finite, got nan"),
        ("schauder_ratio", {"data": {"gamma": -math.inf}}, "data.gamma must be finite, got -inf"),
        ("compatibility", {"data": {"f_amplitude": 1e999}}, "data.f_amplitude must be finite"),
        ("schauder_ratio", {"data": {"draws": 2.7}}, "data.draws must be an integer, got 2.7"),
        ("stability", {"ensemble": {"paths": 1.5}}, "ensemble.paths must be an integer, got 1.5"),
        ("schauder_ratio", {"data": {"draws": True}}, "data.draws must be an integer, got True"),
        ("stability", {"grid": {"x1_cells": 32.9}}, "grid.x1_cells must be an integer, got 32.9"),
        ("stability", {"grid": {"steps": True}}, "grid.steps must be an integer, got True"),
        ("stability", {"grid": {"dim": 1.7}}, "grid.dim must be an integer, got 1.7"),
        ("stability", {"grid": {"x1_max": math.nan}}, "grid.x1_max must be finite, got nan"),
        ("stability", {"grid": {"t_max": math.inf}}, "grid.t_max must be finite, got inf"),
        (
            "stability", {"ensemble": {"master_seed": 1.5}},
            "ensemble.master_seed must be an integer, got 1.5",
        ),
        ("pipeline", {"levels": "two"}, "levels must be an integer, got 'two'"),
        # a dim-1 grid has no x' for refine() to double
        (
            "continuity", {"grid": {"xp_cells": 8}},
            "bad grid block: dim == 1 takes no xp_max/xp_cells, got (0.0, 8)",
        ),
        (
            "stability", {"grid": {"xp_max": 1.0}},
            "bad grid block: dim == 1 takes no xp_max/xp_cells, got (1.0, 0)",
        ),
        # no study reads these: a one-grid study's levels, a coefficients block
        # beside no sigma key, sigma's column count, and a stream salt
        *[
            (study, {"levels": 1}, "unknown configuration key(s) ['levels']")
            for study in ("stability", "compatibility", "continuity")
        ],
        *[
            (
                study, {"coefficients": {"a": [[1.0]], "sigma": [[0.0]]}},
                "unknown configuration key(s) ['coefficients']",
            )
            for study in ("halfline_lemma", "stability")
        ],
        *[
            (study, {"coefficients": {"n_modes": 1}}, "unknown coefficients key(s) ['n_modes']")
            for study in ("compatibility", "schauder_ratio", "pipeline", "continuity")
        ],
        *[
            (study, {"ensemble": {"stream_salt": 0}}, "unknown ensemble key(s) ['stream_salt']")
            for study in sorted(EXPERIMENTS)
        ],
        ("continuity", {"coefficients": {"bound": math.inf}}, "coefficients.bound must be finite"),
        # JSON numbers only: no string or bool reads as one
        ("continuity", {"data": {"f_amplitude": "3"}}, "data.f_amplitude must be a number"),
        ("continuity", {"data": {"s0": True}}, "data.s0 must be a number, got True"),
        ("continuity", {"grid": {"x1_max": "0.8"}}, "grid.x1_max must be a number, got '0.8'"),
        (
            "continuity", {"coefficients": {"kappa": "0.5"}},
            "coefficients.kappa must be a number, got '0.5'",
        ),
        ("halfline_lemma", {"data": {"alpha": [0.5, "0.25"]}}, "data.alpha must be a number"),
        ("continuity", {"coefficients": {"a": [["1.9"]]}}, "coefficients.a must be a number"),
        (
            "continuity", {"coefficients": {"sigma": [[False]]}},
            "coefficients.sigma must be a number, got False",
        ),
        (
            "compatibility", {"coefficients": {"sigma_violating": [[0.7], [None]]}},
            "coefficients.sigma_violating must be a number, got None",
        ),
        # a None drops the key; every missing required key is named
        (
            "stability", {"grid": {"t_max": None, "steps": None}},
            "missing grid key(s) ['t_max', 'steps']",
        ),
        ("continuity", {"coefficients": {"a": None}}, "missing coefficients key(s) ['a']"),
        (
            "compatibility", {"coefficients": {"sigma_violating": None}},
            "missing coefficients key(s) ['sigma_violating']",
        ),
    ],
    ids=[
        "unknown-top-level", "unknown-grid", "unknown-coefficients", "unknown-ensemble",
        "unknown-data", "alpha-1.5", "alpha-empty", "policy-sparse", "policy-auto", "gamma-1",
        "draws-0", "iterations-2", "gamma-nan", "gamma-minus-inf", "amplitude-inf", "draws-2.7",
        "paths-1.5", "draws-true", "x1-cells-32.9", "steps-true", "dim-1.7", "x1-max-nan",
        "t-max-inf", "master-seed-1.5", "levels-text", "xp-cells-dim1", "xp-max-dim1",
        "stability-levels", "compatibility-levels", "continuity-levels",
        "halfline-coefficients", "stability-coefficients",
        "compatibility-n-modes", "schauder-n-modes", "pipeline-n-modes", "continuity-n-modes",
        *[f"{study}-stream-salt" for study in sorted(EXPERIMENTS)], "bound-inf", "amplitude-text",
        "s0-bool", "x1-max-text", "kappa-text", "alpha-text", "a-text", "sigma-bool",
        "sigma-null", "grid-missing-t-max-steps", "a-missing", "sigma-violating-missing",
    ],
)
def test_the_schema_refuses_a_config_no_verdict_can_read(
    study, edit, message, tmp_path, capsys, monkeypatch
):
    # each edit is one key on a checked-in config; the gate refuses it before any compute
    def unreachable(*args):
        """Stand-in body; the parser takes its help text from here."""
        raise AssertionError("the study body ran")

    monkeypatch.setitem(EXPERIMENTS, study, replace(EXPERIMENTS[study], body=unreachable))
    raw = json.loads((CONFIGS / f"{study}.json").read_text())
    for key, value in edit.items():
        if isinstance(value, dict):
            raw[key] = {k: v for k, v in {**raw.get(key, {}), **value}.items() if v is not None}
        else:
            raw[key] = value
    cfg = write_config(tmp_path, raw)
    assert main(["validate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and message in err
    assert main([study, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert not (tmp_path / f"{study}.csv").exists()


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    [f"configs/{p.name}" for p in sorted(CONFIGS.glob("*.json"))]
    + [f"workload/{name}" for name in _workloads().WORKLOADS],
)
def test_checked_in_and_benchmark_configs_validate(name):
    kind, _, stem = name.partition("/")
    if kind == "configs":
        raw = json.loads((CONFIGS / stem).read_text())
    else:
        raw = _workloads().raw_config(stem, 1)
    ExperimentConfig.from_dict(raw).validate()


@pytest.mark.parametrize(
    "module", ["spdelab"] + [f"spdelab.{m.name}" for m in pkgutil.iter_modules(spdelab.__path__)]
)
def test_every_public_name_resolves(module):
    # perfbench's tracer looks up each __all__ entry, so a stale one breaks every traced run
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


@pytest.mark.parametrize(
    "function, names",
    [
        ("solver.check_parabolicity", "times"),
        ("solver.solve_model_halfspace", "grid noise"),
        ("halfline.solve_halfline", "data grid"),
        ("halfline.dt_v", "data grid"),
    ],
)
def test_the_parameters_the_tracer_binds_by_name_exist(function, names):
    # perfbench's tracer counts work from these arguments, bound by name, so a
    # dropped or renamed one makes every traced run raise KeyError
    module, _, name = function.partition(".")
    fn = getattr(importlib.import_module(f"spdelab.{module}"), name)
    assert set(names.split()) <= set(inspect.signature(fn).parameters)


@pytest.mark.parametrize(
    "study, defaults",
    [
        ("halfline_lemma", {"alpha": [0.25, 0.5, 0.75], "gamma": 2.0, "pair_policy": "exhaustive"}),
        ("stability", {"gamma": 2.0}),
        (
            "compatibility",
            {"f_amplitude": 1.0, "f_tangential_wave": 0.5, "g_violating_amplitude": 0.0},
        ),
        ("schauder_ratio", {"alpha": 0.5, "gamma": 2.0, "draws": 5, "pair_policy": "dyadic"}),
        ("pipeline", {"f_amplitude": 1.0, "f_tangential_wave": 0.5}),
        ("continuity", {"s": 1.0, "s0": 0.9, "iterations": 7, "f_amplitude": 1.0}),
    ],
)
def test_an_omitted_data_block_takes_every_default(study, defaults):
    raw = json.loads((CONFIGS / f"{study}.json").read_text())
    del raw["data"]
    cfg = ExperimentConfig.from_dict(raw)
    cfg.validate()
    assert cfg.data == defaults
    alphas = defaults.get("alpha", [])
    assert [(s.alpha, s.gamma, s.pair_policy) for s in cfg.specs] == [
        (a, 2.0, defaults["pair_policy"]) for a in np.ravel(alphas)
    ]


def test_the_readme_data_table_matches_the_registry():
    # README's data keys table, row `study` | `key` default, ...: each study
    # lists exactly its registry entry's data keys, with the same defaults
    rows = re.findall(r"^\| `(\w+)` +\| (.+?) +\|$", (ROOT / "README.md").read_text(), re.M)
    listed = {
        study: {key: json.loads(text.replace("none", "null"))
                for key, text in re.findall(r"`(\w+)` (.+?)(?=, `|$)", cells)}
        for study, cells in rows
    }
    assert listed == {
        name: {key: default for key, (default, _) in study.data.items()}
        for name, study in EXPERIMENTS.items()
    }


def test_the_readme_configuration_example_validates():
    # the example in README's Configuration section is a whole configuration the gate admits
    text = (ROOT / "README.md").read_text().split("## Configuration", 1)[1]
    example = re.search(r"^    \{\n.*?^    \}$", text, re.M | re.S).group(0)
    ExperimentConfig.from_dict(json.loads(example)).validate()


def test_compatibility_refuses_sigma_keys_of_different_column_counts(tmp_path, capsys):
    # both variants step with one noise batch: the run would end in the solver's ModelError
    raw = _checked_in("compatibility")
    raw["coefficients"]["sigma_violating"] = [[0.7, 0.0], [0.0, 0.0]]
    message = (
        "the sigma keys need one column count, got {'sigma_tangential': 1, 'sigma_violating': 2}"
    )
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.from_dict(raw).validate()
    assert main(["validate", "--config", write_config(tmp_path, raw)]) == 1
    assert message in capsys.readouterr().err


def test_the_cli_offers_only_the_studies_and_validate(capsys):
    # the kernel subcommand is gone: argparse refuses it as it refuses any unknown name
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--s", "1", "--y", "1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "invalid choice" in err and "kernel" in err
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(EXPERIMENTS) | {"validate"}


# -- the import split ---------------------------------------------------

# a small configuration per study: (grid edits, top-level keys replaced)
_SMALL = {
    "halfline_lemma": ({}, {"levels": 2}),
    "stability": ({"x1_cells": 6, "steps": 4}, {"ensemble": {"paths": 8}}),
    "compatibility": (
        {"x1_max": 1.0, "t_max": 0.000192, "steps": 64, "xp_cells": 4}, {"ensemble": {"paths": 2}},
    ),
    "schauder_ratio": ({}, {"levels": 2, "data": {"draws": 1}}),
    "pipeline": ({"t_max": 0.0125, "steps": 32}, {}),
    "continuity": ({"x1_cells": 9, "steps": 1512}, {}),
}


def _small(study):
    grid, top = _SMALL[study]
    return json.dumps({**_checked_in(study, **grid), **top})


def _fresh(code, *args):
    """stdout of code run in a new interpreter on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "studies, unloaded",
    [
        (("halfline_lemma", "stability"),
         ("spdelab.solver", "spdelab.pipeline", "scipy.sparse", "scipy.linalg")),
        # the 1-D continuation solves with dgttrs alone: SuperLU stays unloaded
        (("continuity",), ("scipy.sparse",)),
    ],
    ids=["kernel_studies", "continuity"],
)
def test_lab_validate_and_a_run_leave_unloaded_what_the_study_never_calls(studies, unloaded):
    code = (
        "import json, sys\n"
        "from spdelab.cli import main\n"
        "from spdelab.experiments import ExperimentConfig, run_study\n"
        "for path, raw in zip(sys.argv[2::2], sys.argv[3::2]):\n"
        "    assert main(['validate', '--config', path]) == 0\n"
        "    assert run_study(ExperimentConfig.from_dict(json.loads(raw))).n_failed == 0\n"
        "print([m for m in sys.argv[1].split(',') if m in sys.modules])\n"
    )
    pairs = [(str(CONFIGS / f"{study}.json"), _small(study)) for study in studies]
    out = _fresh(code, ",".join(unloaded), *(arg for pair in pairs for arg in pair))
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("study", sorted(_SMALL))
def test_a_study_imports_nothing_after_the_gate(study):
    # the gate loads what the body steps with, so no import lands in the study's time
    code = (
        "import json, sys\n"
        "from spdelab.experiments import ExperimentConfig, run_study\n"
        "config = ExperimentConfig.from_dict(json.loads(sys.argv[1]))\n"
        "config.validate()\n"
        "before = set(sys.modules)\n"
        "run_study(config)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    assert _fresh(code, _small(study)) == "[]\n"


def test_every_package_name_resolves_in_a_fresh_process():
    code = (
        "import spdelab\n"
        "names = {}\n"
        "exec('from spdelab import *', names)\n"
        "missing = [n for n in spdelab.__all__ if names.get(n) is not getattr(spdelab, n)]\n"
        "assert not missing, missing\n"
        "assert spdelab.Forcing is spdelab.solver.Forcing\n"
        "assert spdelab.decompose_pipeline is spdelab.pipeline.decompose_pipeline\n"
        "assert not hasattr(spdelab, 'no_such_name')\n"
    )
    _fresh(code)


# -- the gate's contract --------------------------------------------------

# data values near the checked-in ones; a key may also be left out
_DATA_DRAWS = {
    "halfline_lemma": {"alpha": [[0.5], [0.25, 0.75]], "gamma": [2.0, 3.0],
                       "pair_policy": ["exhaustive", "dyadic"]},
    "stability": {"gamma": [2.0, 3.0]},
    "compatibility": {"f_amplitude": [0.0, 1.0], "f_tangential_wave": [0.0, 0.25],
                      "g_violating_amplitude": [0.0, 0.3]},
    "schauder_ratio": {"alpha": [0.25, 0.75], "gamma": [2.0, 3.0],
                       "pair_policy": ["exhaustive", "dyadic"]},
    "pipeline": {"f_amplitude": [0.0, 1.0], "f_tangential_wave": [0.0, 0.5]},
    "continuity": {"s": [1.0, 0.95], "s0": [0.9, 0.5], "f_amplitude": [0.0, 1.0]},
}


@st.composite
def near_checked_in(draw):
    """A checked-in config on a small grid: 1-3 levels where the study
    takes them, 1-3 paths, data varied."""
    study = draw(st.sampled_from(sorted(_DATA_DRAWS)))
    raw = json.loads((CONFIGS / f"{study}.json").read_text())
    raw["grid"].update(
        x1_max=draw(st.sampled_from([raw["grid"]["x1_max"], 10.0])),
        x1_cells=draw(st.sampled_from([128] if study == "compatibility" else [2, 3, 5])),
        t_max=draw(st.sampled_from([raw["grid"]["t_max"], 1e-4])),
        steps=draw(st.sampled_from([1, 3, 8])),
    )
    if raw["grid"]["dim"] == 2:
        raw["grid"]["xp_cells"] = draw(st.sampled_from([4, raw["grid"]["xp_cells"]]))
    if study in ("halfline_lemma", "schauder_ratio", "pipeline"):  # the one-grid studies take none
        raw["levels"] = draw(st.integers(1, 3))
    raw.setdefault("ensemble", {})["paths"] = draw(st.integers(1, 3))
    # the two counts the run time grows with are always set, and small
    data = {}
    if study == "schauder_ratio":
        data["draws"] = draw(st.integers(1, 2))
    if study == "continuity":
        data["iterations"] = draw(st.integers(3, 4))
    for key, values in _DATA_DRAWS[study].items():
        value = draw(st.sampled_from([None, *values]))
        if value is not None:
            data[key] = value
    raw["data"] = data
    return raw


@settings(max_examples=60)
@given(near_checked_in())
def test_a_config_the_gate_admits_runs_to_a_report(raw):
    # validate() refuses it, or run_study returns a report; verdicts may fail
    config = ExperimentConfig.from_dict(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config.validate()
        except ConfigError:
            return
        assert isinstance(run_study(config), StudyReport)
