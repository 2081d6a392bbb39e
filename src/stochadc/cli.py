"""Command-line experiment runner.

Usage: stochadc <experiment> --config <path> [--seed N] [--out DIR]
                [--calibration FILE]

Exit codes distinguish the error classes: 2 for configuration errors (a
non-coherent tone included, checked at load), 3 for violated preconditions
(input under-range, undersampled calibration, a PI chain that cannot span
its clock period, ...), 4 for unconvergent path trimming, 1 for anything
else.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConfigError, PreconditionError, SimError, TrimConvergenceError
from .experiments import EXPERIMENT_NAMES, run_experiment

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_TRIM = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochadc",
        description="Batch experiments on the interleaved stochastic-TDC ADC model",
    )
    parser.add_argument("experiment", choices=EXPERIMENT_NAMES)
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--out", default=None, help="output directory (default: config output.dir)")
    parser.add_argument(
        "--calibration", default=None,
        help="resume adc-sine from a calibration file written by `calibrate`",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.output.dir
        result = run_experiment(
            args.experiment,
            cfg,
            out_dir=out_dir,
            seed=args.seed,
            calibration_path=args.calibration,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrimConvergenceError as exc:
        print(f"unconvergent trim: {exc}", file=sys.stderr)
        return EXIT_TRIM
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    summary = ", ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in list(result.metrics.items())[:6]
    )
    print(f"{result.name} seed={result.seed} config={result.config_hash}: {summary}")
    for path in result.files:
        print(f"  wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
