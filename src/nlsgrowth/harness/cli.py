"""Command line interface.

Verbs:
  run            execute one experiment from a config file
  sweep          expand sweep.* lists and run the case grid (lattice cases
                 stepped as one batch, in at most --workers chunks)
  fit            least-squares growth exponent of a CSV column
  accept         run the acceptance suite
  export-kernel  write a propagator kernel table as CSV (n, re, im)

Exit codes: 0 success, 2 config error or invalid input (``ConfigError``,
``ValueError``, ``OSError``, or ``MemoryError``: an allocation the host
cannot make), 3 numerical abort (``NumericsError``, whose message names the
run and what failed), 4 acceptance failure.  Each failure prints one line on
stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import NumericsError
from .config import _SWEEP_TARGETS, ConfigError, parse_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_ACCEPTANCE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsgrowth",
        description="Lattice/continuum NLS growth experiments",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--config", type=Path, required=True)
    experiment.add_argument("--out", type=Path, required=True)
    experiment.add_argument("--seed", type=int, help="set data.seed, or ensemble.seed for lattice-linear")
    sub.add_parser("run", parents=[experiment], help="execute one experiment")
    sweep_p = sub.add_parser("sweep", parents=[experiment], help="run a sweep over config lists")
    sweep_p.add_argument("--workers", type=int, default=1)

    fit_p = sub.add_parser("fit", help="fit a growth exponent from a series CSV")
    fit_p.add_argument("--csv", type=Path, required=True)
    fit_p.add_argument("--column", default="sup_abs")
    fit_p.add_argument("--t-lo", type=float, required=True)
    fit_p.add_argument("--t-hi", type=float, required=True)

    acc_p = sub.add_parser("accept", help="run the acceptance suite")
    acc_p.add_argument("--out", type=Path, default=None)

    ker_p = sub.add_parser("export-kernel", help="write K_n(t) as CSV")
    ker_p.add_argument("--t", type=float, required=True)
    ker_p.add_argument("--half-width", type=int, default=None)
    ker_p.add_argument("--out", type=Path, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    # each verb imports what it uses, so fit and a config error never load
    # the engines and their FFT backend
    args = _build_parser().parse_args(argv)
    try:
        if args.verb in ("run", "sweep"):
            config = parse_config(args.config)
            if args.seed is not None:
                (seed_key,) = (key for key in _SWEEP_TARGETS["sweep.seeds"] if key in config.params)
                config = config.with_overrides(**{seed_key: args.seed})
            from .runner import run_experiment, sweep_experiment
            if args.verb == "run":
                out = run_experiment(config, args.out)
            else:
                out = sweep_experiment(config, args.out, workers=args.workers)
            print(f"{args.verb} written to {out}")
            return EXIT_OK
        if args.verb == "fit":
            from .csvio import read_csv
            from .fitting import fit_growth
            data = read_csv(args.csv)
            for column in ("t", args.column):
                if column not in data:
                    raise ConfigError(f"column {column!r} not in {sorted(data)} of {args.csv}")
            result = fit_growth(data["t"], data[args.column], (args.t_lo, args.t_hi))
            print(
                f"slope={result.slope:.6f} intercept={result.intercept:.6f} "
                f"rms={result.residual_rms:.3e} n={result.n_points} "
                f"window=[{result.window[0]}, {result.window[1]}]"
            )
            return EXIT_OK
        if args.verb == "accept":
            from .acceptance import acceptance_suite
            results = acceptance_suite(args.out)
            return EXIT_OK if all(r.passed for r in results) else EXIT_ACCEPTANCE
        if args.verb == "export-kernel":
            from ..fields import _extent
            from ..lattice_linear import kernel_table
            from .csvio import write_csv
            tab = kernel_table(args.t, args.half_width)
            half_width = _extent(tab)
            rows = [(i - half_width, float(v.real), float(v.imag)) for i, v in enumerate(tab)]
            write_csv(args.out, ["n", "re", "im"], rows)
            print(f"kernel table (t={args.t}, half_width={half_width}) -> {args.out}")
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable verb")


if __name__ == "__main__":
    raise SystemExit(main())
