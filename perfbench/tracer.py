"""Outside-in span recorder for the spdelab layers.

`Tracer.install()` replaces every public function of each layer module
with a wrapper that records a span (name, start, end, parent, trace id)
and, for a few functions, work counts taken from the call's arguments
and return value.  Modules bind helpers with `from .x import f`, so the
wrapper goes into every `spdelab.*` namespace that holds the original,
not only the defining module; otherwise nested calls such as
norms -> finite_diff would go untraced.  Spans stay in memory until
`write()`.  Runs are single-threaded (workers=1), so spans nest.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

from workloads import LAYERS


def _policy(kind: str) -> str:
    # NormResult.kind carries the pair policy as "name[policy]"
    return kind[kind.index("[") + 1 : -1] if "[" in kind else ""


def _norm_counts(a, result):
    res = result[1] if isinstance(result, tuple) else result
    return {"pairs": res.pairs, "policy": _policy(res.kind)}


def _halfline_counts(a, result):
    grid = a["grid"]
    return {
        "nodes": grid.steps * (grid.n_x1 - 1),
        "route": "analytic" if a["data"].analytic else "sampled",
    }


# counters by span name: f(bound arguments, return value) -> dict
COUNTERS = {
    "norms.space_seminorm": _norm_counts,
    "norms.parabolic_seminorm": _norm_counts,
    "norms.trace_parabolic_norm": _norm_counts,
    "halfline.solve_halfline": _halfline_counts,
    "halfline.dt_v": _halfline_counts,
    "solver.solve_model_halfspace": lambda a, r: {
        "path_steps": a["noise"].n_paths * a["grid"].steps,
        "dim": f"dim{a['grid'].dim}",
    },
    "solver.check_parabolicity": lambda a, r: {"time_nodes": len(a["times"])},
    "pipeline.halfline_heat_dirichlet": lambda a, r: {
        "path_steps": a["wall_values"].shape[0] * a["grid"].steps
    },
    "fields.finite_diff": lambda a, r: {"bytes_out": r.values.nbytes},
    "rng.standard_normals": lambda a, r: {"normals": r.size},
    "experiments.StudyReport.write": lambda a, r: {
        "bytes": sum(os.path.getsize(p) for p in r.values())
    },
}


class Tracer:
    """Span recorder for one run; spans share `trace_id`."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name}"
        counter = COUNTERS.get(span_name)
        sig = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": span_name, "layer": layer, "parent": stack[-1] if stack else None}
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = clock()
                stack.pop()
            if counter is not None:
                span["counts"] = counter(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions wherever spdelab binds them."""
        namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "spdelab"]
        for layer in LAYERS:
            mod = importlib.import_module(f"spdelab.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self._wrap(layer, name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, traced, fn)
        report = importlib.import_module("spdelab.experiments").StudyReport
        self._patch(report, "write", self._wrap("experiments", "StudyReport.write", report.write), report.write)

    def _patch(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._patched.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(span, trace_id=self.trace_id)) + "\n")


def self_times(spans: list) -> list:
    """Span duration minus the time its child spans cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _descends(spans, i, root):
    while i is not None:
        if i == root:
            return True
        i = spans[i]["parent"]
    return False


def layer_metrics(spans: list, study_s: float) -> dict:
    """Per-layer metrics of one traced study run.

    Layer totals count only spans under the `run_study` root, so they
    sum to the traced study time; the report write is timed apart.
    """
    selfs = self_times(spans)
    root = next(i for i, s in enumerate(spans) if s["name"] == "experiments.run_study")
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    acc: dict = {}

    def add(key, value):
        acc[key] = acc.get(key, 0) + value

    for i, s in enumerate(spans):
        if not _descends(spans, i, root):
            if s["name"] == "experiments.StudyReport.write":
                add("experiments.write_s", s["end"] - s["start"])
                add("experiments.write_bytes", s["counts"]["bytes"])
            continue
        name, c = s["name"], s.get("counts", {})
        m[f"{s['layer']}.self_s"] += selfs[i]
        add(f"{name}.self_s", selfs[i])
        add(f"{s['layer']}.errors", 1 if s.get("error") else 0)
        if "policy" in c:
            add(f"norms.pairs.{c['policy']}", c["pairs"])
            add(f"norms.policy_s.{c['policy']}", selfs[i])
        if "route" in c:
            add(f"halfline.nodes.{c['route']}", c["nodes"])
            add(f"halfline.route_s.{c['route']}", selfs[i])
        if "dim" in c:
            add(f"solver.solve_model_halfspace.{c['dim']}.self_s", selfs[i])
            add(f"solver.path_steps.{c['dim']}", c["path_steps"])
        if name == "solver.check_parabolicity":
            add("solver.check_parabolicity.time_nodes", c["time_nodes"])
        if name == "pipeline.halfline_heat_dirichlet":
            add("pipeline.halfline_heat_dirichlet.path_steps", c["path_steps"])
        if name == "fields.finite_diff":
            add("fields.finite_diff.calls", 1)
            add("fields.finite_diff.bytes_out", c["bytes_out"])
        if name == "rng.standard_normals":
            add("rng.normals", c["normals"])

    def get(key):
        return acc.get(key, 0)

    def per(num_key, den_key, scale):
        return scale * get(num_key) / get(den_key) if get(den_key) else 0.0

    for fn in ("parabolic_seminorm", "space_seminorm", "sup_norm", "trace_parabolic_norm", "time_seminorm"):
        m[f"norms.{fn}.self_s"] = get(f"norms.{fn}.self_s")
    for p in ("dyadic", "exhaustive"):
        m[f"norms.pairs.{p}"] = get(f"norms.pairs.{p}")
        m[f"norms.ns_per_pair.{p}"] = per(f"norms.policy_s.{p}", f"norms.pairs.{p}", 1e9)
    for fn in ("solve_halfline", "dt_v"):
        m[f"halfline.{fn}.self_s"] = get(f"halfline.{fn}.self_s")
    for r in ("analytic", "sampled"):
        m[f"halfline.nodes.{r}"] = get(f"halfline.nodes.{r}")
        m[f"halfline.us_per_node.{r}"] = per(f"halfline.route_s.{r}", f"halfline.nodes.{r}", 1e6)
    m["halfline.errors"] = get("halfline.errors")
    for d in ("dim1", "dim2"):
        m[f"solver.solve_model_halfspace.{d}.self_s"] = get(f"solver.solve_model_halfspace.{d}.self_s")
        m[f"solver.path_steps.{d}"] = get(f"solver.path_steps.{d}")
        m[f"solver.us_per_path_step.{d}"] = per(
            f"solver.solve_model_halfspace.{d}.self_s", f"solver.path_steps.{d}", 1e6
        )
    for key in (
        "solver.check_parabolicity.self_s",
        "solver.check_parabolicity.time_nodes",
        "solver.continuity_step.self_s",
        "solver.errors",
        "fields.finite_diff.self_s",
        "fields.finite_diff.calls",
        "fields.finite_diff.bytes_out",
        "pipeline.decompose_pipeline.self_s",
        "pipeline.halfline_heat_dirichlet.self_s",
        "pipeline.halfline_heat_dirichlet.path_steps",
        "rng.normals",
        "experiments.write_s",
        "experiments.write_bytes",
    ):
        m[key] = get(key)
    m["run.study_s"] = study_s
    return m
