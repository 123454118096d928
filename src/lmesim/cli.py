"""Command-line entry point.

    lmesim <scenario> --config run.ini [--out table.csv] [--threads N] [--step H]

The subcommand picks the scenario kind (overriding any ``kind`` in the
config file); ``--step`` overrides the integrator step.  ``--threads`` is
accepted for compatibility and ignored once it passes its ``>= 1`` check:
every scenario runs in one process.  Exit codes:
0 success, 1 configuration/validation problem or an output path that cannot
be written (a missing directory or a directory path is reported before the
scenario runs), 2 numerical failure of a single-trajectory run (sweep-point
failures are recorded in the CSV status column instead).
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import replace

from .errors import NUMERICAL_ERRORS, ConfigError

# NumPy's OpenBLAS starts its worker threads as it loads, and an idle worker
# spins on a CPU: a CLI run calls BLAS only on small matrices, so NumPy loads
# with one thread unless OPENBLAS_NUM_THREADS is set.  The variable is
# removed again, and no host process or child sees it.
_BLAS_THREADS_UNSET = "OPENBLAS_NUM_THREADS" not in os.environ
if _BLAS_THREADS_UNSET:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .scenarios import KINDS, emit_csv, load_config, run_scenario
finally:
    if _BLAS_THREADS_UNSET:
        del os.environ["OPENBLAS_NUM_THREADS"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmesim",
        description="two-qubit open-system simulator: trajectories, steady "
                    "states and parameter sweeps, written as CSV",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="scenario")
    descriptions = {
        "evolve": "undriven trajectory with thermodynamic observables",
        "steady": "undriven steady state (covariance + density matrix)",
        "sweep-boundary": "steady entropy production over a (T1/T2, eps1/eps2) grid",
        "sweep-detuning": "steady J1 versus the splitting difference",
        "sweep-scaling": "|J1| versus zeta^2 or lambda^2",
        "relaxation": "tau0, tau_r and their ratio versus zeta^2",
        "driven": "driven trajectory with effective-temperature diagnostics",
    }
    for kind in KINDS:
        name = kind.replace("_", "-")
        cmd = sub.add_parser(name, help=descriptions[name])
        cmd.add_argument("--config", required=True, help="scenario config file")
        cmd.add_argument("--out", default=None, help="output CSV path "
                         "(default: from config, else <scenario>.csv)")
        cmd.add_argument("--threads", type=int, default=None,
                         help="ignored (must be >= 1); every scenario runs "
                              "in one process")
        cmd.add_argument("--step", type=float, default=None,
                         help="integrator step override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 1
    except (OSError, configparser.Error, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    overrides = {"kind": args.command.replace("-", "_")}
    if args.out is not None:
        overrides["out"] = args.out
    if args.threads is not None and args.threads < 1:
        print("config error: --threads must be >= 1", file=sys.stderr)
        return 1
    if args.step is not None:
        try:
            overrides["integrator"] = replace(cfg.integrator, step=args.step)
        except ValueError as exc:
            print(f"config error: --step: {exc}", file=sys.stderr)
            return 1
    cfg = replace(cfg, **overrides)

    # a scenario can run for seconds: report an output path that cannot be
    # written before it starts (without creating the file)
    out = cfg.out or f"{cfg.kind}.csv"
    folder = os.path.dirname(out) or "."
    if os.path.isdir(out) or not os.path.isdir(folder):
        why = "is a directory" if os.path.isdir(out) else f"no such directory {folder}"
        print(f"output error: {out}: {why}", file=sys.stderr)
        return 1

    try:
        table = run_scenario(cfg)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2

    try:
        emit_csv(table, out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out} ({len(table.rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
