"""Command-line interface.

Exit codes: 0 success, 1 configuration/validation failure or an output
path that cannot be written, 2 numerical failure (stability, positivity,
infeasible node, steady solve) or any other internal error.  Failures
print one machine-parsable line ``error: <reason>: <detail>`` on stderr,
never a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time as _time
from pathlib import Path
from typing import Callable, NamedTuple

from . import experiments
from .config import build_network, config_sha, load_config
from .errors import ConfigError, SimulationError
from .output import SeriesWriter, write_series, write_summary
from .steady import solve_steady_state

DEFAULT_OUT = Path("out")    # the studies' and convergence's directory


def _common_flags(parser):
    parser.add_argument("--dt", type=float, default=None,
                        help="time step in seconds (default: scenario value "
                             "or stability-limited)")
    parser.add_argument("--dx", type=float, default=None,
                        help="target grid spacing in metres")
    parser.add_argument("--t-end", type=float, default=None,
                        help="end time in seconds")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: out; 'run': the "
                             "config's output_path; 'steady' writes a "
                             "summary only when given)")
    parser.add_argument("--cadence", type=float, default=None,
                        help="output sample spacing in seconds")
    parser.add_argument("--cfl-safety", type=float, default=None,
                        help="stability safety factor (default 0.9, or the "
                             "config value for 'run')")
    parser.add_argument("--strict", action="store_true",
                        help="reject unknown config keys and report profile "
                             "clamping")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gasnetsim",
        description="Explicit staggered-grid transient simulator for "
                    "natural-gas pipeline networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate a network config")
    p.add_argument("config", type=Path)
    _common_flags(p)

    p = sub.add_parser("validate", help="validate a network config")
    p.add_argument("config", type=Path)
    _common_flags(p)

    p = sub.add_parser("steady", help="solve and print the steady state of "
                                      "a network config")
    p.add_argument("config", type=Path)
    _common_flags(p)

    p = sub.add_parser("convergence", help="grid-refinement order study")
    _common_flags(p)

    p = sub.add_parser("fast-transient", help="outlet flux step study")
    p.add_argument("--eos", choices=("ideal", "cnga"), default="cnga")
    _common_flags(p)

    p = sub.add_parser("slow-transient", help="slow harmonic pressure study")
    p.add_argument("--eos", choices=("ideal", "cnga"), default="cnga")
    p.add_argument("--periods", type=int, default=50)
    _common_flags(p)

    p = sub.add_parser("temperature", help="inlet temperature spike study")
    p.add_argument("--rate", type=float, default=1e-3,
                   help="temperature decay rate in 1/m (1e-3 or 1e-4)")
    _common_flags(p)

    p = sub.add_parser("five-node", help="five-node network study")
    p.add_argument("--eos", choices=("ideal", "cnga"), default="cnga")
    _common_flags(p)
    return parser


def _finish(result, name, out_dir, started, params):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_series(result.store.rows, out_dir / f"{name}.csv")
    summary = dict(result.summary)
    summary["config_sha"] = config_sha(params)
    summary["wall_seconds"] = _time.monotonic() - started
    write_summary(summary, out_dir / f"{name}_summary.json")
    print(f"wrote {out_dir / (name + '.csv')}")
    return 0


def _cmd_run(args):
    started = _time.monotonic()
    cfg = load_config(args.config, strict=args.strict)
    if cfg.simulation is None:
        raise ConfigError(["simulation section is required for 'run'"])
    sim = cfg.simulation
    net = build_network(cfg, dx_target=args.dx, strict=args.strict)
    steady = solve_steady_state(net, t0=0.0)
    steady.populate(net, t0=0.0)
    safety = sim.cfl_safety if args.cfl_safety is None else args.cfl_safety
    dt = args.dt or sim.dt or net.cfl_max_dt(safety)
    t_end = args.t_end or sim.t_end
    cadence = args.cadence or sim.output_cadence
    out_dir = args.out or Path(sim.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    with SeriesWriter(out_dir / "run.csv") as writer:
        result = experiments.simulate_network(net, dt, t_end, cadence,
                                              writer=writer)
    summary = dict(result.summary)
    summary["config_sha"] = config_sha(cfg)
    summary["wall_seconds"] = _time.monotonic() - started
    write_summary(summary, out_dir / "run_summary.json")
    print(f"wrote {out_dir / 'run.csv'}")
    return 0


def _cmd_check_config(args):
    load_config(args.config, strict=args.strict)
    print(f"{args.config}: valid")
    return 0


def _cmd_steady(args):
    cfg = load_config(args.config, strict=args.strict)
    net = build_network(cfg, dx_target=args.dx, strict=args.strict)
    steady = solve_steady_state(net, t0=0.0)
    for node_id, p in steady.node_pressures.items():
        print(f"node {node_id}: pressure {p:.6g} Pa")
    for pipe_id, m in steady.pipe_flows.items():
        p_in, p_out = steady.pipe_end_pressures[pipe_id]
        print(f"pipe {pipe_id}: flow {m:.6g} kg/s, inlet {p_in:.6g} Pa, "
              f"outlet {p_out:.6g} Pa")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_summary({**steady.to_dict(), "config_sha": config_sha(cfg)},
                      args.out / "steady_summary.json")
    return 0


def _cmd_convergence(args):
    started = _time.monotonic()
    report = experiments.run_convergence_study()
    out_dir = args.out or DEFAULT_OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = report.to_dict()
    doc["wall_seconds"] = _time.monotonic() - started
    path = out_dir / "convergence.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{'variable':10s} {'last_two':>9s} {'endpoint':>9s}")
    for var in ("rho", "p", "phi"):
        r = report.rates[var]
        print(f"{var:10s} {r['last_two']:9.4f} {r['endpoint']:9.4f}")
    print(f"wrote {path}")
    return 0


class _Study(NamedTuple):
    run: Callable           # the experiment function
    stem: str               # output file stem, formatted with the flags
    flags: dict             # subcommand flag -> experiment argument
    scale: dict             # scale argument -> default, hashed into params
    cadence: float          # default output sample spacing


_STUDIES = {
    "fast-transient": _Study(experiments.run_fast_transient,
                             "fast_transient_{eos}", {"eos": "eos_kind"},
                             {"dx": 100.0, "t_end": 3600.0}, 10.0),
    "slow-transient": _Study(experiments.run_slow_transient,
                             "slow_transient_{eos}",
                             {"eos": "eos_kind", "periods": "n_periods"},
                             {"dx": 500.0}, 300.0),
    "temperature": _Study(experiments.run_temperature_effect,
                          "temperature_{rate:g}", {"rate": "decay_rate"},
                          {"dx": 200.0, "t_end": 16 * 3600.0}, 60.0),
    "five-node": _Study(experiments.run_five_node_network, "five_node_{eos}",
                        {"eos": "eos_kind"},
                        {"dx_target": 62.5, "t_end": 86400.0, "dt": 0.125},
                        60.0),
}


def _cmd_study(args):
    started = _time.monotonic()
    study = _STUDIES[args.command]
    # the flag behind each scale argument; five-node names its grid dx_target
    given = {"dx": args.dx, "dx_target": args.dx, "t_end": args.t_end,
             "dt": args.dt}
    scale = {key: given[key] or default
             for key, default in study.scale.items()}
    params = {"experiment": args.command,
              **{flag: getattr(args, flag) for flag in study.flags}, **scale}
    kwargs = {arg: getattr(args, flag) for flag, arg in study.flags.items()}
    kwargs.update(dt=args.dt, cadence=args.cadence or study.cadence,
                  cfl_safety=args.cfl_safety or 0.9)
    kwargs.update(scale)
    result = study.run(**kwargs)
    return _finish(result, study.stem.format(**vars(args)),
                   args.out or DEFAULT_OUT, started, params)


def _flag_violations(args) -> list[str]:
    """Scale and study flags must be positive and finite; the CFL safety
    in (0, 1]."""
    problems = [f"--{name.replace('_', '-')} must be a positive finite number"
                for name in ("dt", "dx", "t_end", "cadence", "rate", "periods")
                if getattr(args, name, None) is not None and
                not 0 < getattr(args, name) < math.inf]
    if args.cfl_safety is not None and not 0 < args.cfl_safety <= 1:
        problems.append("--cfl-safety must be in (0, 1]")
    return problems


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_check_config,
    "steady": _cmd_steady,
    "convergence": _cmd_convergence,
    **dict.fromkeys(_STUDIES, _cmd_study),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problems = _flag_violations(args)
        if problems:
            raise ConfigError(problems)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"error: validation: {violation}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"error: {exc.reason}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: output: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: internal_error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
