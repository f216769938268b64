"""Self-checks: tracing changes no output, self times add up, the speed sampler probes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import LAYERS, ROOT, WORKLOADS  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

import spdelab  # noqa: E402
from spdelab import fields, norms  # noqa: E402


def _study(workload, out, trace):
    cmd = [sys.executable, os.path.join(HERE, "study.py"), "--workload", workload,
           "--seed", "7", "--out", str(out)] + (["--trace"] if trace else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_wrappers_replace_every_binding_and_nest():
    original = fields.finite_diff
    tracer = Tracer("unit")
    tracer.install()
    try:
        assert norms.finite_diff is fields.finite_diff is spdelab.finite_diff
        assert fields.finite_diff is not original
        grid = fields.SpaceTimeGrid(dim=1, x1_max=1.0, x1_cells=6, t_max=0.1, steps=4)
        f = fields.FieldEnsemble(np.random.default_rng(0).normal(size=(2, 5, 7)), grid)
        norms.parabolic_seminorm(f, norms.NormSpec(alpha=0.5), m=2)
    finally:
        tracer.uninstall()
    assert fields.finite_diff is original and norms.finite_diff is original
    names = [s["name"] for s in tracer.spans]
    assert names == ["norms.parabolic_seminorm", "fields.finite_diff"]
    assert tracer.spans[1]["parent"] == 0
    assert tracer.spans[0]["counts"]["pairs"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_matches_untraced(workload, tmp_path):
    plain = _study(workload, tmp_path / "plain", trace=False)
    traced = _study(workload, tmp_path / "traced", trace=True)
    assert traced["sha256"] == plain["sha256"]
    assert traced["verdicts_failed"] == plain["verdicts_failed"] == 0
    layers = traced["layers"]
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(layers["run.study_s"], abs=1e-3)
    assert layers[f"{WORKLOADS[workload]['dominant']}.self_s"] == max(
        layers[f"{layer}.self_s"] for layer in LAYERS
    )
    with open(tmp_path / "traced" / "spans.jsonl") as fh:
        spans = [json.loads(ln) for ln in fh]
    assert len({s["trace_id"] for s in spans}) == 1
    assert layer_metrics(spans, layers["run.study_s"]) == layers


def test_speed_sampler_probes_during_a_run_and_restores_the_handler():
    import signal
    import time

    from speed import INTERVAL_S, SpeedSampler

    before = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler()
    sampler.start()
    end = time.perf_counter() + 5 * INTERVAL_S
    while time.perf_counter() < end:
        sum(i * i for i in range(1000))
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one probe at start and stop, and about one per interval in between
    assert 5 <= len(sampler.samples) <= 8
    assert 0.0 < sampler.spent_s < 5 * INTERVAL_S
    assert sampler.speed() > 0.0
