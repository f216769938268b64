"""Study-level benchmark for spdelab.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each study run is a fresh process (perfbench/study.py) making the same
calls `lab <study>` makes.  Runs follow one another, never in parallel,
until --seconds have been spent; a workload's seed replaces
ensemble.master_seed.

--trace 0 reports the end-to-end metrics (medians over the runs):
  study_ref_s  seconds of run_study at the reference core speed: wall
               seconds scaled by the core speed sampled during the run
               (speed.py), so that a shared host's load drops out
  setup_s      process start to a validated config (at least five samples)
  peak_rss_mb  peak resident memory of the run process
and prints, unscaled, the wall seconds of run_study (study_s) and the
sampled speed.
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics (medians over the traced runs), the CPU seconds of the untraced
runs and the tracing overhead (traced over untraced median study_s, both
unscaled wall seconds).

A run fails if it raises, returns a failed verdict, or its canonical
CSV differs from the first run of the same seed.  A CSV that differs
from the SHA-256 recorded in perfbench/golden.json is reported as drift,
not counted as a failure.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import EXCLUDED, ROOT, WORKLOADS, missing_files

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
MIN_SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170

END_TO_END = {"study_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed with the end-to-end metrics, not reported in the JSON line
UNSCALED = {"study_s": "s", "speed": "ratio"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.startswith("norms.ns_per_pair"):
        return "ns"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_out"):
        return "bytes_computed"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_once(workload, seed, out, *, trace=False, setup_only=False) -> dict:
    """One study run in a fresh process; its JSON plus setup_s and wall_s, or an error."""
    cmd = [sys.executable, os.path.join(HERE, "study.py"), "--workload", workload,
           "--seed", str(seed), "--out", out]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s", "wall_s": time.monotonic() - spawned}
    wall_s = time.monotonic() - spawned
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit status {proc.returncode}"]
        return {"error": tail[0], "wall_s": wall_s}
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["validated_at"] - spawned
    res["wall_s"] = wall_s
    return res


def _quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def _machine() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    l3 = ""
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(cache)):
            with open(os.path.join(cache, idx, "level")) as fh:
                if fh.read().strip() == "3":
                    with open(os.path.join(cache, idx, "size")) as fh2:
                        l3 = fh2.read().strip()
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "note": f"{nproc}-core machine that may be shared with other work; "
                "its load shows in the timings",
    }


def _golden(workload, seed):
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)["sha256"].get(workload, {}).get(str(seed))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for `seconds` and summarise it."""
    out = os.path.join(OUT, workload)
    start = time.monotonic()
    runs, errors = [], []
    while True:
        # a traced measurement alternates untraced and traced runs
        runs.append(run_once(workload, seed, out, trace=trace and len(runs) % 2 == 1))
        walls = [r["wall_s"] for r in runs]
        if len(runs) >= 1 + trace and time.monotonic() - start + statistics.median(walls) > seconds:
            break

    first_sha = next((r["sha256"] for r in runs if "sha256" in r), None)
    good = []
    for r in runs:
        if "error" in r:
            errors.append(r["error"])
        elif r["verdicts_failed"]:
            errors.append(f"{r['verdicts_failed']} of {r['verdicts']} verdicts failed")
        elif r["sha256"] != first_sha:
            errors.append(f"canonical CSV {r['sha256'][:12]} differs from {first_sha[:12]}")
        else:
            good.append(r)
    timed = [r for r in good if ("layers" in r) == trace]
    if not timed:
        raise RuntimeError(f"{workload}: no {'traced ' if trace else ''}run succeeded: {errors}")
    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    while len(setups) < MIN_SETUP_SAMPLES:
        probe = run_once(workload, seed, out, setup_only=True)
        if "error" in probe:
            raise RuntimeError(f"{workload}: set-up probe failed: {probe['error']}")
        setups.append(probe["setup_s"])

    samples = {
        "study_s": [r["study_s"] for r in timed],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }
    if not trace:
        samples["study_ref_s"] = [r["study_ref_s"] for r in timed]
        samples["speed"] = [r["speed"] for r in timed]
    if trace:
        layers = {k: [r["layers"][k] for r in timed] for k in timed[0]["layers"]}
        metrics = {k: statistics.median(v) for k, v in layers.items()}
        untraced = [r for r in good if "layers" not in r]
        if not untraced:
            raise RuntimeError(f"{workload}: no untraced run succeeded: {errors}")
        metrics["run.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
        metrics["trace.overhead_ratio"] = metrics["run.study_s"] / statistics.median(
            r["study_s"] for r in untraced
        )
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {k: statistics.median(samples[k]) for k in END_TO_END}
        units = dict(END_TO_END)

    golden = _golden(workload, seed)
    if first_sha is None or golden is None:
        drift = "no golden SHA for this seed"
    else:
        drift = "matches golden" if golden == first_sha else f"DRIFT from golden {golden[:12]}"
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(runs),
        "failed": len(runs) - len(good),
        "errors": errors,
        "sha256": first_sha,
        "golden": drift,
        "verdicts": [good[0]["verdicts"] - good[0]["verdicts_failed"], good[0]["verdicts"]],
        "samples": samples,
        "metrics": metrics,
        "units": units,
    }


def _print_summary(res: dict) -> None:
    w = res["workload"]
    print(f"== {w}  seed {res['seed']}  trace {res['trace']}  "
          f"({res['attempted']} runs, {res['failed']} failed)")
    print(f"   why: {res['why']}")
    print(f"   canonical CSV sha256 {res['sha256']}  ({res['golden']})")
    print(f"   verdicts passed {res['verdicts'][0]}/{res['verdicts'][1]}")
    for err in res["errors"]:
        print(f"   FAILED: {err}")
    if res["trace"]:
        for k, v in res["metrics"].items():
            print(f"   {k:<48s} {v:14.6g} {res['units'][k]}")
        layers = {k.split(".")[0]: v for k, v in res["metrics"].items()
                  if k.count(".") == 1 and k.endswith(".self_s")}
        top = max(layers, key=layers.get)
        print(f"   dominant layer {top} ({layers[top] / res['metrics']['run.study_s']:.0%} "
              f"of traced study_s); predicted {WORKLOADS[w]['dominant']}")
        return
    for k, unit in {**END_TO_END, **UNSCALED}.items():
        q1, med, q3 = _quartiles(res["samples"][k])
        print(f"   {k:<12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
              f"n {len(res['samples'][k])}  {unit}")
    print(f"   {'fail_ratio':<12s} {res['failed'] / res['attempted']:.4f}  "
          f"({res['failed']}/{res['attempted']})  ratio")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="spdelab study-level benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = missing_files()
    if missing:
        print(f"not a spdelab checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    machine = _machine()
    print(f"machine {json.dumps(machine)}")
    results = []
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace))
        res["machine"] = machine
        res["why"] = WORKLOADS[name]["why"]
        res["size_override"] = WORKLOADS[name]["overrides"]
        res["excluded"] = EXCLUDED
        _print_summary(res)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(res, fh, indent=1)
        print(f"   record {os.path.relpath(path, ROOT)}")
        results.append(res)

    prefix = len(names) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": r["units"][k]}
        for r in results for k, v in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
