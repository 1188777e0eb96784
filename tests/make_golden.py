"""Rewrite ``tests/golden.json``, the recorded outputs of small CLI runs.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/make_golden.py

Each run of ``RUNS`` is one ``gasnetsim`` command line, run in-process
into a fresh directory.  A run of a config under ``tests/data`` names
its files after that config (``mesh_small_run.csv``), so that they do not
clash with the bundled config's.  For every file it writes the golden
file keeps

* the sha256 of its bytes, under the key of this platform (Python, numpy,
  scipy and machine), since ``math.sin``, ``np.arctan`` or ``T**3.825``
  may round differently under another libm; a summary is hashed without
  its ``wall_seconds``;
* a fingerprint, the ``repr`` of every value of the last CSV sample or
  of every number in the summary, which ``test_golden.py`` compares on a
  platform with no recorded hashes: each value may move by ``rtol`` of the
  largest magnitude in its group (its key without the last part: a field
  over all nodes or pipes, a list, a small dict), so that a value at
  roundoff, such as a demand node's net flow, is judged on its field's
  scale.

Fields at roundoff by construction (``ROUNDOFF_FIELDS``, the mass-ledger
discrepancy) are left out of the fingerprints: the ledger tests bound them.
Rewriting keeps the hashes recorded for other platforms unless the
fingerprints changed, and prints, per file, the largest relative change
of its fingerprint.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from gasnetsim import cli
from gasnetsim.experiments import FIVE_NODE_CONFIG

GOLDEN_PATH = Path(__file__).with_name("golden.json")
RTOL = 1e-5       # a one-ulp change moves the convergence rates by ~5e-7
ROUNDOFF_FIELDS = ("discrepancy", "max_ledger_discrepancy_kg")
CONFIG = "{config}"       # stands for the bundled five-node config
DATA = Path(__file__).with_name("data")
# a 9-pipe netgen mesh (seed 3) with three constant-ratio compressors,
# four harmonic withdrawals and three dead ends
MESH_SMALL = "mesh_small.json"

RUNS = (
    ("fast-transient", "--dx", "2000", "--t-end", "900"),
    ("slow-transient", "--dx", "10000", "--periods", "1"),
    ("temperature", "--dx", "5000", "--t-end", "1800"),
    ("five-node", "--dx", "4000", "--t-end", "600"),
    ("five-node", "--eos", "ideal", "--dx", "4000", "--t-end", "600"),
    ("run", CONFIG, "--dx", "4000", "--t-end", "600", "--dt", "1"),
    ("convergence",),
    ("steady", CONFIG, "--dx", "4000"),
    ("run", MESH_SMALL),
)


def command_line(run) -> list:
    """The arguments of a run of ``RUNS``, with its config's path."""
    return [str(FIVE_NODE_CONFIG) if arg == CONFIG else
            str(DATA / arg) if arg.endswith(".json") else arg for arg in run]


def platform_key() -> str:
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, {platform.machine()}")


def run_all(out_dir: Path) -> dict:
    """Run every command of ``RUNS`` into its own directory under
    ``out_dir``; returns ``{file name: path}`` of what they wrote."""
    files = {}
    for i, run in enumerate(RUNS):
        run_dir = out_dir / str(i)
        prefix = "".join(arg[:-len(".json")] + "_" for arg in run
                         if arg.endswith(".json"))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*command_line(run), "--out", str(run_dir)])
        if code != 0:
            raise RuntimeError(f"gasnetsim {' '.join(run)} exited {code}")
        for path in sorted(run_dir.iterdir()):
            name = prefix + path.name
            if name in files:
                raise RuntimeError(f"two runs write {name}")
            files[name] = path
    return files


def _summary(path: Path) -> dict:
    summary = json.loads(path.read_text())
    summary.pop("wall_seconds", None)
    return summary


def sha256(path: Path) -> str:
    """The hash of a CSV's bytes, or of a summary without its
    ``wall_seconds``, dumped as ``output.write_summary`` dumps it."""
    if path.suffix == ".json":
        blob = (json.dumps(_summary(path), indent=2, sort_keys=True) +
                "\n").encode()
    else:
        blob = path.read_bytes()
    return hashlib.sha256(blob).hexdigest()


def _numbers(value, key, out):
    if isinstance(value, dict):
        for k, v in value.items():
            _numbers(v, f"{key}/{k}" if key else k, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _numbers(v, f"{key}/{i}", out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool) \
            and key.rsplit("/", 1)[-1] not in ROUNDOFF_FIELDS:
        out[key] = repr(value)


def fingerprint(path: Path) -> dict:
    """``{key: repr(value)}`` of a summary's numbers, or of a series CSV's
    last sample: its time ``t`` and its rows keyed ``entity/field/id``."""
    out = {}
    if path.suffix == ".json":
        _numbers(_summary(path), "", out)
        return out
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    last = rows[-1][0]
    for t, entity, entity_id, field, value in rows:
        if t == last and field not in ROUNDOFF_FIELDS:
            out[f"{entity}/{field}/{entity_id}"] = value
    out["t"] = last
    return out


def max_rel_diff(old: dict, new: dict) -> float:
    """Largest difference between two fingerprints, each relative to the
    largest magnitude in the old value's group; inf when their keys
    differ."""
    if old.keys() != new.keys():
        return math.inf
    scale = {}
    for key, a in old.items():
        group = key.rsplit("/", 1)[0]
        scale[group] = max(scale.get(group, 0.0), abs(float(a)))
    worst = 0.0
    for key, a in old.items():
        a, b = float(a), float(new[key])
        if a != b:
            worst = max(worst, abs(a - b) / scale[key.rsplit("/", 1)[0]])
    return worst


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        files = run_all(Path(tmp))
        hashes = {name: sha256(path) for name, path in files.items()}
        prints = {name: fingerprint(path) for name, path in files.items()}
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() \
        else {"fingerprints": {}, "sha256": {}}
    for name, new in prints.items():
        diff = max_rel_diff(old["fingerprints"].get(name, {}), new)
        print(f"{name}: max relative change {diff:.3g}")
    kept = old["sha256"] if old["fingerprints"] == prints else {}
    golden = {"rtol": RTOL, "roundoff_fields": list(ROUNDOFF_FIELDS),
              "fingerprints": prints,
              "sha256": {**kept, platform_key(): hashes}}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) +
                           "\n")
    print(f"wrote {GOLDEN_PATH} for {platform_key()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
