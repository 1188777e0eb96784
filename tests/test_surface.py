"""Every public function, method and property of the simulation modules is
reached from the command line or a study, so that code only tests call
does not collect in the package.

One tiny case of each subcommand (the convergence study at two levels,
since its subcommand runs the full six) runs under ``sys.setprofile``, and
each public name must have been entered.  Names are matched by their code
objects, so a property or a decorated method counts once its body runs.
What only tests need lives in ``tests/support.py``.
"""

import importlib
import inspect
import json
import sys

from gasnetsim import cli, experiments

MODULES = ("network", "experiments", "output", "eos", "pipe")
# scalar references the tests compare the vectorised step against
REFERENCES = {"network.nodal_pressure_solve", "pipe.friction_invert"}
FIVE_NODE = experiments.FIVE_NODE_CONFIG

# a dead end whose withdrawal ramps from 100 kg/s to 1e7 kg/s in 1 s:
# the run drains the end cell and is refused naming the cell (exit 2)
DRAINED = {
    "version": "v1", "eos": {"kind": "cnga"},
    "nodes": [{"id": "a", "kind": "slack", "pressure": 6.5e6},
              {"id": "b", "kind": "demand",
               "withdrawal": {"type": "piecewise_linear",
                              "knots": [[0.0, 100.0], [1.0, 1e7]]}}],
    "pipes": [{"id": "p", "from": "a", "to": "b", "length": 1e4,
               "diameter": 0.9144, "friction": 0.01}],
    "compressors": [],
    "simulation": {"dt": 1.0, "t_end": 60.0, "dx_target": 1000.0,
                   "cfl_safety": 0.9, "output_cadence": 60.0,
                   "output_path": "out"},
}


def public_code(module):
    """``{"module.name": code}`` of the module's public functions and the
    public methods and properties of the classes it defines."""
    short = module.__name__.rsplit(".", 1)[1]
    found = {}
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            found[f"{short}.{name}"] = obj.__code__
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, property):
                    fns = (member.fget, member.fset, member.fdel)
                else:
                    fns = (getattr(member, "__func__", member),)
                for fn in fns:
                    if inspect.isfunction(fn):
                        found[f"{short}.{name}.{attr}"] = \
                            inspect.unwrap(fn).__code__
    return found


def test_every_public_name_is_reached(tmp_path, capsys):
    drained = tmp_path / "drained.json"
    drained.write_text(json.dumps(DRAINED))
    out = ["--out", str(tmp_path)]
    cases = [
        (["validate", str(FIVE_NODE)], 0),
        (["steady", str(FIVE_NODE), "--dx", "4000", *out], 0),
        (["run", str(FIVE_NODE), "--dx", "4000", "--t-end", "60", *out], 0),
        (["run", str(drained), *out], 2),
        (["fast-transient", "--dx", "5000", "--t-end", "60", *out], 0),
        (["slow-transient", "--dx", "10000", "--periods", "1",
          "--cadence", "3600", *out], 0),
        (["temperature", "--dx", "10000", "--t-end", "600", *out], 0),
        (["five-node", "--dx", "4000", "--t-end", "60", *out], 0),
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv, _ in cases]
        experiments.run_convergence_study(n_levels=2, ref_level=2).to_dict()
    finally:
        sys.setprofile(before)
    assert codes == [code for _, code in cases], capsys.readouterr().err

    unreached = sorted(
        name for module in MODULES
        for name, code in public_code(
            importlib.import_module(f"gasnetsim.{module}")).items()
        if code not in entered and name not in REFERENCES)
    assert unreached == []
