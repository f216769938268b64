"""Record each workload's canonical-CSV SHA-256 and verdicts per seed.

    python3 perfbench/record_golden.py --commit ID --seeds 20260821 7 0 1 2

Writes perfbench/golden.json, against which run.py reports byte drift.
Exits 1 if any run fails a verdict.
"""

from __future__ import annotations

import argparse
import json
import os

from run import HERE, OUT, run_once
from workloads import WORKLOADS


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--commit", required=True, help="the commit the SHAs belong to")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    sha, verdicts, bad = {}, {}, 0
    for name in WORKLOADS:
        sha[name], verdicts[name] = {}, {}
        for seed in args.seeds:
            r = run_once(name, seed, os.path.join(OUT, name))
            if "error" in r:
                raise SystemExit(f"{name} seed {seed}: {r['error']}")
            passed = r["verdicts"] - r["verdicts_failed"]
            sha[name][str(seed)] = r["sha256"]
            verdicts[name][str(seed)] = [passed, r["verdicts"]]
            bad += r["verdicts_failed"] > 0
            print(f"{name} seed {seed}: {r['sha256']} verdicts {passed}/{r['verdicts']}", flush=True)
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump({"commit": args.commit, "sha256": sha, "verdicts_passed": verdicts}, fh, indent=1)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
