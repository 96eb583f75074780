"""Command line front end.

``streamkc run`` streams a dataset file through one algorithm and writes a
metrics file; ``streamkc synth`` generates the synthetic ball-with-outliers
datasets used in the experiments.  Neither declares a default of its own:
``ExperimentConfig`` and ``generate_ball_stream`` supply every flag not given.
"""

from __future__ import annotations

import argparse
import sys

from .experiment import (
    ALGORITHMS,
    ExperimentConfig,
    generate_ball_stream,
    run_experiment,
    write_points,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streamkc")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags left out of argv stay off the namespace: the callee's defaults apply
    keep_defaults = dict(argument_default=argparse.SUPPRESS)
    run = sub.add_parser("run", help="run one algorithm over a dataset stream", **keep_defaults)
    run.add_argument("--input", dest="input_path", required=True,
                     help="dataset file, one point per line")
    run.add_argument("--output", dest="output_path", required=True, help="metrics file to write")
    run.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    run.add_argument("--window", dest="window_len", type=int, required=True, help="window length N")
    run.add_argument("--k", type=int)
    run.add_argument("--z", type=int)
    run.add_argument("--lam", type=float, help="weight estimate slack")
    run.add_argument("--beta", type=float, help="radius grid granularity")
    run.add_argument("--alpha", type=float, help="effective diameter level")
    run.add_argument("--eps", type=float, help="effective diameter accuracy")
    run.add_argument("--eta", type=float, help="lower bound on effective/full diameter ratio")
    run.add_argument("--fine-cap", type=int)
    run.add_argument("--query-every", type=int)
    run.add_argument("--inject-prob", type=float,
                     help="probability of emitting an injected outlier after each point")
    run.add_argument("--outlier-scale", type=float,
                     help="injected outlier norm as a multiple of the dataset diameter")
    run.add_argument("--diameter", dest="dataset_diameter", type=float,
                     help="dataset diameter (skips the pre-scan)")
    run.add_argument("--seed", type=int)
    run.add_argument("--mode", choices=("fixed", "oblivious"))
    run.add_argument("--d-min", type=float)
    run.add_argument("--d-max", type=float)
    run.add_argument("--step", type=float, help="baseline radius grid step (default: beta)")
    run.add_argument("--sample-size", type=int)
    run.add_argument("--bucket-step", type=float)
    run.add_argument("--raw-timings", dest="raw_timings_path",
                     help="also dump raw per-point update times to this file")

    synth = sub.add_parser("synth", help="generate a synthetic ball dataset", **keep_defaults)
    synth.add_argument("--output", required=True)
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--dim", type=int)
    synth.add_argument("--outlier-rate", type=float,
                       help="fraction of points placed on the outlier sphere")
    synth.add_argument("--outlier-norm", type=float)
    synth.add_argument("--seed", type=int)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    try:
        if args.pop("command") == "synth":
            output = args.pop("output")
            write_points(generate_ball_stream(**args), output)
            print(f"wrote {args['n']} points to {output}")
            return 0
        out = run_experiment(ExperimentConfig(**args))
        print(f"wrote metrics to {out}")
        return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
