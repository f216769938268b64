"""One study run in a fresh process, as `lab <study>` makes it.

    python3 perfbench/study.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

Builds the workload's ExperimentConfig with the seed override, runs
validate(), run_study(cfg, workers=1) and StudyReport.write, and prints
one JSON object: the monotonic clock when the config was validated (the
parent subtracts its spawn time to get set-up time), study wall and CPU
seconds, peak RSS, the canonical-CSV SHA-256 and the verdict counts.
Without --trace the core's speed is sampled during the study (speed.py)
and the study time at the reference speed is added; the probes' own time
is taken off the wall and CPU seconds.  With --trace the layer functions
are wrapped first, no speed is sampled, and the per-layer metrics are
added; spans are written to DIR/spans.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from workloads import ROOT, WORKLOADS, raw_config


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spdelab import experiments

    config = experiments.ExperimentConfig.from_dict(raw_config(args.workload, args.seed))
    config.validate()
    validated_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"validated_at": validated_at}))
        return 0

    tracer = sampler = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
    else:
        from speed import SpeedSampler

        sampler = SpeedSampler()
        sampler.start()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    report = experiments.run_study(config, workers=1)
    study_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    probe_s = 0.0
    if sampler is not None:
        sampler.stop()
        probe_s = sampler.spent_s
        study_s -= probe_s
    paths = report.write(args.out)
    with open(paths["csv"], "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()

    out = {
        "validated_at": validated_at,
        "study_s": study_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime) - probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": sha,
        "verdicts": len(report.verdicts),
        "verdicts_failed": report.n_failed,
    }
    if sampler is not None:
        out["speed"] = sampler.speed()
        out["study_ref_s"] = study_s * out["speed"]
        out["speed_samples"] = len(sampler.samples)
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        tracer.write(os.path.join(args.out, "spans.jsonl"))
        out["layers"] = layer_metrics(tracer.spans, study_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
