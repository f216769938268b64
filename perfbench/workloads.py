"""The benchmark's workloads: which study, at what size, and why.

Each workload is one checked-in study configuration plus a size
override, applied like the seed to a copy of the raw configuration.  At
the checked-in sizes the four studies take 13-115 s each on a 2-core
machine, too long for repeated timed runs in a fresh process each, so
each workload shrinks its study while keeping its routes:

- schauder and halfline drop their finest refinement level, and
  schauder runs 2 of its 5 draws;
- continuity keeps the horizon and dt/dx^2 on 9 instead of 24 cells
  (1,512 instead of 10,752 steps);
- pipeline keeps dt and its three levels over a quarter of the horizon.

Every verdict passes at these sizes (see golden.json).  The layer mix
moves with the size: at the checked-in size halfline spends 55% of its
time in norms and 43% in the kernel quadrature, here about 13% and 87%;
pipeline spends about 40% in the kernel quadrature instead of 62%.
"""

from __future__ import annotations

import copy
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAYERS = ("rng", "fields", "halfline", "solver", "pipeline", "norms", "experiments")

WORKLOADS = {
    "schauder": {
        "config": "configs/schauder_ratio.json",
        "overrides": {"levels": 2, "data": {"draws": 2}},
        "why": "dyadic-pair Holder norms of 2-D solves take about 90% of the time; "
        "where a faster norms engine must show its gain",
        "dominant": "norms",
    },
    "halfline": {
        "config": "configs/halfline_lemma.json",
        "overrides": {"levels": 2},
        "why": "analytic kernel quadrature (about 87%) plus exhaustive-pair norms, "
        "no solver; deterministic, so the seed is ignored",
        "dominant": "halfline",
    },
    "continuity": {
        "config": "configs/continuity.json",
        "overrides": {"grid": {"x1_cells": 9, "steps": 1512}},
        "why": "1-D tridiagonal solver step loop and per-node parabolicity checks; "
        "no norms or kernel work, so changes there must read as zero",
        "dominant": "solver",
    },
    "pipeline": {
        "config": "configs/pipeline.json",
        "overrides": {"grid": {"t_max": 0.0125, "steps": 32}},
        "why": "sampled kernel route (about 40%), 2-D SuperLU solves, the pipeline's "
        "own heat solves and finite differences; the only pipeline-layer workload",
        "dominant": "halfline",
    },
}

# Studies and routes that no workload runs, and why.
EXCLUDED = {
    "compatibility": "its 2-D solve uses the same 128x8 matrix route as pipeline",
    "stability": "0.8 s at the checked-in size; its dt_v route is covered by halfline",
    "mode oracle": "a test-only periodic solve, not a study",
    "workers>1": "every run uses workers=1, so timings do not depend on spare cores",
    "extension": "no study reaches it (solve_additive_heat only uses the direct route)",
    "cli": "argument parsing only; the benchmark makes the same calls lab makes",
}


def _merge(dst: dict, src: dict) -> None:
    for key, value in src.items():
        if isinstance(value, dict):
            _merge(dst.setdefault(key, {}), value)
        else:
            dst[key] = value


def raw_config(name: str, seed: int) -> dict:
    """The workload's configuration with its size override and the seed.

    The seed replaces ensemble.master_seed on a copy of the raw
    configuration, as `lab <study> --seed` does.
    """
    wl = WORKLOADS[name]
    with open(os.path.join(ROOT, wl["config"])) as fh:
        raw = copy.deepcopy(json.load(fh))
    _merge(raw, wl["overrides"])
    raw.setdefault("ensemble", {})["master_seed"] = seed
    return raw


def missing_files() -> list:
    """Repository files the benchmark needs and cannot find."""
    need = ["src/spdelab/__init__.py"] + [wl["config"] for wl in WORKLOADS.values()]
    return [p for p in need if not os.path.isfile(os.path.join(ROOT, p))]
