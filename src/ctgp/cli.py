"""Command-line interface.

Subcommands: train, simulate, evaluate, learning-curve, check.  Exit codes:
0 success, 1 configuration or file errors, 2 numerical failures, 3
divergence.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ConfigError, load_scenario
from .dynamics import DynamicsError
from .gp import GPError
from .harness import (run_check, run_evaluate, run_learning_curve,
                      run_simulate, run_train)
from .parallel import WorkerError
from .sim import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_DIVERGENCE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctgp",
        description="Computed-torque control with Gaussian-process model compensation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="generate training data and fit the GP")
    train.add_argument("--config", required=True, help="scenario YAML file")
    train.add_argument("--out", required=True, help="output directory")
    train.add_argument("--seed", type=int, default=None, help="override the training seed")

    simulate = sub.add_parser("simulate", help="run the closed-loop simulation")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out", required=True)
    simulate.add_argument("--seed", type=int, default=None, help="override the base seed")
    simulate.add_argument("--realizations", type=int, default=None,
                          help="override the realization count")

    evaluate = sub.add_parser("evaluate", help="tabulate tracking RMSE of result files")
    evaluate.add_argument("results", nargs="+", help="trajectory CSV files")
    evaluate.add_argument("--out", required=True, help="report CSV path")
    evaluate.add_argument("--t-skip", type=float, default=1.0,
                          help="drop the initial transient before averaging")

    curve = sub.add_parser("learning-curve",
                           help="retrain on an independent stratified subset per "
                                "size and report RMSE per size")
    curve.add_argument("--config", required=True)
    curve.add_argument("--out", required=True)
    curve.add_argument("--sizes", required=True,
                       help="comma-separated ascending training-set sizes")
    curve.add_argument("--seed", type=int, default=None)

    check = sub.add_parser("check", help="verify structural properties and gain conditions")
    check.add_argument("--config", required=True)
    check.add_argument("--out", default=None, help="optional report directory")
    return parser


def _cmd_train(args) -> int:
    scenario = load_scenario(args.config)
    out = run_train(scenario, args.out, args.seed)
    print(f"wrote {out.training_csv} ({out.train.size} points, {out.dropped} dropped)")
    print(f"wrote {out.hyperparameters_file}")
    print(f"wrote {out.log_file}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.config)
    out = run_simulate(scenario, args.out, args.seed, args.realizations)
    print(f"wrote {out.trajectory_csv}")
    if out.ensemble_csv:
        print(f"wrote {out.ensemble_csv}")
    if out.divergent_runs:
        print(f"divergent runs: {out.divergent_runs}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    table = run_evaluate(args.results, args.t_skip, args.out)
    for label, rmse in table:
        print(f"{label}: " + ", ".join(f"rmse_{j + 1}={v:.6g}" for j, v in enumerate(rmse)))
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_learning_curve(args) -> int:
    scenario = load_scenario(args.config)
    try:
        sizes = [int(v) for v in args.sizes.split(",") if v.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"--sizes: {err}") from err
    path = run_learning_curve(scenario, sizes, args.out, args.seed)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_check(args) -> int:
    scenario = load_scenario(args.config)
    text, passed = run_check(scenario, args.out)
    print(text, end="")
    return EXIT_OK if passed else EXIT_NUMERICAL


_HANDLERS = {
    "train": _cmd_train,
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "learning-curve": _cmd_learning_curve,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"file error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (GPError, WorkerError, DynamicsError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_CONFIG


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
