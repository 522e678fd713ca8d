"""Command-line front end.

Subcommands:
  run <cfg>                        execute a scenario, write report CSVs
  sweep <cfg> --var v --values ... run a one-variable sweep
  fcc <plan args>                  print a compliance report
  analyze <trace>                  occupancy of an exported trace file

Exit codes: 0 success, 2 configuration, trace or output-directory error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import fcc, scenario
from .errors import ConfigError, TraceFormatError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wifipower", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("cfg", help="scenario config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.add_argument("--duration", type=float, default=None, help="seconds")
    run_p.add_argument("--out-dir", default="out", help="report directory")

    sweep_p = sub.add_parser("sweep", help="sweep one variable of a scenario")
    sweep_p.add_argument("cfg")
    sweep_p.add_argument("--var", required=True, choices=scenario.SWEEP_VARIABLES)
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated values (numbers or names)"
    )
    sweep_p.add_argument("--seeds", type=int, default=1, help="seeds per value")
    sweep_p.add_argument("--seed", type=int, default=None, help="override base seed")
    sweep_p.add_argument("--duration", type=float, default=None)
    sweep_p.add_argument("--out-dir", default="out")

    fcc_p = sub.add_parser("fcc", help="check a transmit plan")
    fcc_p.add_argument("--n-ant", default="1")
    fcc_p.add_argument("--gain-dbi", default="6.0")
    fcc_p.add_argument("--total-dbm", default="30.0")
    fcc_p.add_argument("--correlated", action="store_true")
    fcc_p.add_argument("--efficiency", default="1.0")

    an_p = sub.add_parser("analyze", help="occupancy of a trace file")
    an_p.add_argument("trace")
    an_p.add_argument("--window", default=None, help="t0_us,t1_us")
    an_p.add_argument("--stations", default=None, help="comma-separated station ids")
    return p


def _load(args) -> scenario.Scenario:
    """The scenario at `args.cfg` with --seed and --duration applied."""
    sc = scenario.load_scenario(args.cfg)
    if args.seed is not None:
        sc.seed = args.seed
    if args.duration is not None:
        sc.duration_s = args.duration
    sc.validate()
    return sc


def _cmd_run(args) -> int:
    rep = scenario.run(_load(args))
    rep.write_outputs(args.out_dir)
    sys.stdout.write(rep.summary_text())
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    sc = _load(args)
    spec = scenario.SweepSpec(args.var, scenario.read_sweep_values(args.var, args.values))
    seeds = [sc.seed + i for i in range(args.seeds)]
    rows = scenario.sweep(sc, spec, seeds=seeds)
    csv_text = scenario.sweep_csv(rows)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"sweep_{args.var}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    sys.stdout.write(csv_text)
    return EXIT_OK


#: Each `fcc` option and the `[router]` key whose reader reads it.
_FCC_KEYS = {
    "n_ant": "n_antennas",
    "gain_dbi": "antenna_gain_dbi",
    "total_dbm": "tx_total_dbm",
    "efficiency": "beamforming_efficiency",
}


def _cmd_fcc(args) -> int:
    readers = scenario._SECTION_KEYS["router"]
    values = {}
    for option, key in _FCC_KEYS.items():
        try:
            values[key] = readers[key](getattr(args, option))
        except ValueError as exc:
            raise ConfigError(f"--{option.replace('_', '-')}: {exc}") from None
    plan = scenario.RouterConf(correlated=args.correlated, **values).tx_plan()
    report = fcc.check_compliance(plan)
    sys.stdout.write(report.as_text() + "\n")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    window = None
    if args.window:
        try:
            window = tuple(float(v) for v in args.window.split(","))
        except ValueError:
            window = ()
        if len(window) != 2 or not all(map(math.isfinite, window)) or window[1] <= window[0]:
            raise ConfigError("--window expects t0_us,t1_us as two finite numbers, t0 < t1")
    stations = None
    if args.stations:
        stations = [s.strip() for s in args.stations.split(",") if s.strip()]
    result = scenario.analyze_trace(args.trace, window_us=window, stations=stations)
    for ch, occ in sorted(result["per_channel"].items()):
        sys.stdout.write(f"occupancy_ch{ch}={occ:.6f}\n")
    sys.stdout.write(f"occupancy_cumulative={result['cumulative']:.6f}\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "fcc":
            return _cmd_fcc(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        raise AssertionError(args.command)
    except TraceFormatError as exc:
        sys.stderr.write(f"trace error: {exc}\n")
        return EXIT_CONFIG
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        # reading an input raises one of the errors above, so a report write failed
        sys.stderr.write(f"output error: {exc}\n")
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        failure = exc
    # the tracebacks of the error and of the ones it was raised during hold
    # the failed run's frames: drop them, so that after a MemoryError the
    # message has their memory
    failure.__traceback__ = failure.__context__ = failure.__cause__ = None
    sys.stderr.write(f"runtime error: {str(failure) or type(failure).__name__}\n")
    return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
