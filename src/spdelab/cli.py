"""Command-line front end.

    lab <experiment> --config cfg.json [--out DIR --workers W]
    lab validate --config cfg.json

Experiments write their canonical CSV (plus sidecar JSON) into --out,
the current directory by default.  The process exit code is the number
of failed verdicts capped at 255 (the OS keeps a status mod 256); 0 is a pass.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import EXPERIMENTS, ConfigError, ExperimentConfig, run_study


def _worker_count(text):
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _study_parser(sub, name, body):
    p = sub.add_parser(name, help=body.__doc__.splitlines()[0].lower())
    p.add_argument("--config", required=True, help="path to the JSON study configuration")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument(
        "--workers", type=_worker_count, default=1, help="kernel-solve worker threads (>= 1)"
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="studies of stochastic parabolic Dirichlet problems on the half-space",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, study in EXPERIMENTS.items():
        _study_parser(sub, name, study.body)

    pv = sub.add_parser("validate", help="check a configuration without running it")
    pv.add_argument("--config", required=True, help="path to the JSON study configuration")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "validate":
        try:
            config = ExperimentConfig.from_file(args.config)
            checks = config.validate()
        except (ConfigError, OSError, ValueError) as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1
        print(f"ok: {config.experiment} configuration is admissible")
        for key, rep in checks.items():
            print(f"  {key}: parabolicity margins {rep.lower_margin:.3e} / {rep.upper_margin:.3e}")
        return 0

    try:
        config = ExperimentConfig.from_file(args.config)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    if config.experiment != args.command:
        print(
            f"configuration is for {config.experiment!r}, not {args.command!r}",
            file=sys.stderr,
        )
        return 1

    try:
        report = run_study(config, workers=args.workers)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    report.flags = {
        "config": os.path.abspath(args.config),
        "out": args.out,
        "workers": args.workers,
    }
    paths = report.write(args.out)

    for v in report.verdicts:
        mark = "pass" if v.passed else "FAIL"
        print(f"[{mark}] {report.study}:{v.name}  {v.detail}")
    print(f"wrote {paths['csv']}  ({report.wall_clock:.1f}s)")
    return min(report.n_failed, 255)


if __name__ == "__main__":
    raise SystemExit(main())
