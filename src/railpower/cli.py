"""Command-line front end.

Subcommands: run, sweep, mc-velocity, plot-data.  Output CSV/series files
land in RAILPOWER_OUTDIR (or --outdir, default current directory).  Exit
codes: 0 success, 2 config or usage error, 3 when any optimised point
failed to converge (outputs are still written).
"""

from __future__ import annotations

import argparse
import os
import sys

from .configio import ConfigError, load_config
from .harness import (SWEEP_PARAMS, SweepSpec, emit_plot_data,
                      monte_carlo_velocity_error, run_scenario, sweep, write_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNCONVERGED = 3


def _parse_values(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"cannot parse value list {text!r}")


def _out_dir(args) -> str:
    return args.outdir or os.environ.get("RAILPOWER_OUTDIR", ".")


def _out_path(args, name: str) -> str:
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _finish(records, args, name: str) -> int:
    path = _out_path(args, name)
    write_csv(records, path)
    bad = [r for r in records if r.kind != "mean"
           and (r.error or (r.scheme == "optimized" and not r.converged))]
    for r in bad:
        msg = r.error or f"solver did not converge (h_inf={r.h_inf:.3g})"
        print(f"warning: {r.scheme} at {r.param or 'run'}={r.value}: {msg}",
              file=sys.stderr)
    print(path)
    return EXIT_UNCONVERGED if bad else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="railpower",
        description="Transmit-power allocation studies for train-roof relays "
                    "crossing a trackside mmWave cell.")
    parser.add_argument("--outdir", default=None,
                        help="output directory (default: $RAILPOWER_OUTDIR or '.')")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every scheme once on one scenario")
    p_run.add_argument("config")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over a value list")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values (M: count, d_l: m, "
                              "v: km/h, P_T: dBm, sigma_v: m/s)")
    p_sweep.add_argument("--trials", type=int, default=1)
    p_sweep.add_argument("--workers", type=int, default=1)

    p_mc = sub.add_parser("mc-velocity",
                          help="velocity-estimation-error Monte Carlo study")
    p_mc.add_argument("config")
    p_mc.add_argument("--sigmas", required=True,
                      help="comma-separated speed-error stds [m/s]")
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument("--workers", type=int, default=1)

    p_plot = sub.add_parser("plot-data",
                            help="reshape a sweep CSV into per-figure series files")
    p_plot.add_argument("csv")
    p_plot.add_argument("--figure", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _finish(run_scenario(args.config), args, "run.csv")
        if args.command == "sweep":
            cfg, options = load_config(args.config)
            spec = SweepSpec(param=args.param, values=_parse_values(args.values),
                             trials=args.trials)
            records = sweep(cfg, options, spec, workers=args.workers)
            return _finish(records, args, f"sweep_{args.param}.csv")
        if args.command == "mc-velocity":
            cfg, options = load_config(args.config)
            records = monte_carlo_velocity_error(
                cfg, options, _parse_values(args.sigmas), args.trials,
                workers=args.workers)
            return _finish(records, args, "mc_velocity.csv")
        if args.command == "plot-data":
            for path in emit_plot_data(args.csv, args.figure, _out_dir(args)):
                print(path)
            return EXIT_OK
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
