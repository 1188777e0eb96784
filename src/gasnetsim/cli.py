"""Command-line interface.

Exit codes: 0 success, 1 configuration/validation failure (a malformed
command line included) or an output path that cannot be written, 2
numerical failure (stability, positivity, infeasible node, steady solve)
or any other internal error.  Failures print one machine-parsable line
``error: <reason>: <detail>`` on stderr, never a traceback, and each
``--strict`` report of a clamping profile one line
``warning: <location>: <detail>``.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
import time as _time
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

from . import experiments
from .config import build_network, config_sha, load_config
from .errors import ConfigError, SimulationError
from .output import SeriesWriter, write_series, write_summary
from .steady import solve_steady_state

DEFAULT_OUT = Path("out")    # the studies' and convergence's directory

# every flag's argparse definition; each subcommand takes those it reads
_FLAGS = {
    "config": dict(type=Path, help="network config JSON file"),
    "--eos": dict(choices=("ideal", "cnga"), help="equation of state"),
    "--periods": dict(type=int, help="number of 12 h pressure periods"),
    "--rate": dict(type=float,
                   help="temperature decay rate in 1/m (1e-3 or 1e-4)"),
    "--dt": dict(type=float, help="time step in seconds (default: scenario "
                                  "value or stability-limited)"),
    "--dx": dict(type=float, help="target grid spacing in metres"),
    "--t-end": dict(type=float, help="end time in seconds"),
    "--out": dict(type=Path, help="output directory (default: out; 'run': "
                                  "the config's output_path; 'steady' writes "
                                  "a summary only when given)"),
    "--cadence": dict(type=float, help="output sample spacing in seconds"),
    "--cfl-safety": dict(type=float, help="stability safety factor that "
                                          "sizes an unset step (default "
                                          "0.9, or the config value for "
                                          "'run')"),
    "--strict": dict(action="store_true", help="reject unknown keys and warn "
                                               "once per clamping profile"),
}
_RUN_FLAGS = ("--dt", "--dx", "--t-end", "--out", "--cadence", "--cfl-safety")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A malformed command line is a validation failure (exit 1)."""
        raise ConfigError([message])


def build_parser():
    parser = _Parser(prog="gasnetsim",
                     description="Explicit staggered-grid transient "
                                 "simulator for natural-gas pipeline networks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _summarise(result, sha, started, out_dir, name):
    summary = {**result.summary, "config_sha": sha,
               "wall_seconds": _time.monotonic() - started}
    write_summary(summary, out_dir / f"{name}_summary.json")
    print(f"wrote {out_dir / (name + '.csv')}")
    return 0


def _load(args):
    """``args.config``, read with each warning (a ``--strict`` clamping
    report) printed as one ``warning: <message>`` line."""
    original = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return load_config(args.config, strict=args.strict)
    finally:
        warnings.formatwarning = original


def _cmd_run(args):
    started = _time.monotonic()
    cfg = _load(args)
    if cfg.simulation is None:
        raise ConfigError(["simulation section is required for 'run'"])
    sim = cfg.simulation
    if args.cfl_safety is not None and args.dt is None and sim.dt:
        raise ConfigError(["--cfl-safety sizes no step: the config sets "
                           "simulation.dt"])
    net = build_network(cfg, dx_target=args.dx)
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
    return _summarise(result, config_sha(cfg), started, out_dir, "run")


def _cmd_check_config(args):
    _load(args)
    print(f"{args.config}: valid")
    return 0


def _cmd_steady(args):
    cfg = _load(args)
    net = build_network(cfg, dx_target=args.dx)
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
    path = out_dir / "convergence.json"
    write_summary({**report.to_dict(),
                   "wall_seconds": _time.monotonic() - started}, path)
    print(f"{'variable':10s} {'last_two':>9s} {'endpoint':>9s}")
    for var in ("rho", "p", "phi"):
        r = report.rates[var]
        print(f"{var:10s} {r['last_two']:9.4f} {r['endpoint']:9.4f}")
    print(f"wrote {path}")
    return 0


class _Study(NamedTuple):
    run: Callable           # the experiment; its defaults are the study's
    stem: str               # output file stem, formatted with the flags
    flags: dict             # subcommand flag -> its experiment argument
    params: tuple           # flags and arguments hashed into config_sha


_STUDIES = {
    "fast-transient": _Study(experiments.run_fast_transient,
                             "fast_transient_{eos}", {"eos": "eos_kind"},
                             ("eos", "dx", "t_end")),
    "slow-transient": _Study(experiments.run_slow_transient,
                             "slow_transient_{eos}",
                             {"eos": "eos_kind", "periods": "n_periods"},
                             ("eos", "periods", "dx")),
    "temperature": _Study(experiments.run_temperature_effect,
                          "temperature_{rate:g}", {"rate": "decay_rate"},
                          ("rate", "dx", "t_end")),
    "five-node": _Study(experiments.run_five_node_network, "five_node_{eos}",
                        {"eos": "eos_kind", "dx": "dx_target"},
                        ("eos", "dx_target", "t_end", "dt")),
}


def _cmd_study(args):
    started = _time.monotonic()
    study = _STUDIES[args.command]
    kwargs = {name: param.default for name, param
              in inspect.signature(study.run).parameters.items()}
    kwargs.update({study.flags.get(flag, flag): value
                   for flag, value in vars(args).items()
                   if value is not None and flag not in ("command", "out")})
    named = {**kwargs, **{flag: kwargs[arg]
                          for flag, arg in study.flags.items()}}
    params = {"experiment": args.command,
              **{key: named[key] for key in study.params}}
    result = study.run(**kwargs)
    out_dir = args.out or DEFAULT_OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    name = study.stem.format(**named)
    write_series(result.store.rows, out_dir / f"{name}.csv")
    return _summarise(result, config_sha(params), started, out_dir, name)


def _flag_violations(args) -> list[str]:
    """Scale and study flags must be positive and finite; the CFL safety
    in (0, 1], and given only when no ``--dt`` sets the step."""
    problems = [f"--{name.replace('_', '-')} must be a positive finite number"
                for name in ("dt", "dx", "t_end", "cadence", "rate", "periods")
                if getattr(args, name, None) is not None and
                not 0 < getattr(args, name) < math.inf]
    safety = getattr(args, "cfl_safety", None)
    if safety is not None and not 0 < safety <= 1:
        problems.append("--cfl-safety must be in (0, 1]")
    if safety is not None and getattr(args, "dt", None) is not None:
        problems.append("--cfl-safety sizes no step: --dt sets it")
    return problems


class _Command(NamedTuple):
    help: str
    handler: Callable
    flags: tuple            # the _FLAGS the handler reads


_COMMANDS = {
    "run": _Command("simulate a network config", _cmd_run,
                    ("config", *_RUN_FLAGS, "--strict")),
    "validate": _Command("validate a network config", _cmd_check_config,
                         ("config", "--strict")),
    "steady": _Command("solve and print the steady state of a network "
                       "config", _cmd_steady,
                       ("config", "--dx", "--out", "--strict")),
    "convergence": _Command("grid-refinement order study", _cmd_convergence,
                            ("--out",)),
    "fast-transient": _Command("outlet flux step study", _cmd_study,
                               ("--eos", *_RUN_FLAGS)),
    "slow-transient": _Command("slow harmonic pressure study", _cmd_study,
                               ("--eos", "--periods", "--dt", "--dx", "--out",
                                "--cadence", "--cfl-safety")),
    "temperature": _Command("inlet temperature spike study", _cmd_study,
                            ("--rate", *_RUN_FLAGS)),
    "five-node": _Command("five-node network study", _cmd_study,
                          ("--eos", "--dt", "--dx", "--t-end", "--out",
                           "--cadence")),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        problems = _flag_violations(args)
        if problems:
            raise ConfigError(problems)
        return _COMMANDS[args.command].handler(args)
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
