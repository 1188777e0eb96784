"""Compute the reference final values the benchmark checks its runs against.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py --scale full --mesh40-seeds 0 32

For each workload this runs one study and stores its final node (or pipe
end) pressures and total mass in ``perfbench/reference.json``, merged into
the entries already there.  The five-node and temperature studies do not
depend on the seed and are stored once; mesh40 is stored per seed.  A study
whose other checks fail is not stored.  Regenerate only when the numbers
are meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import loader
import workloads
from spans import Tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=("full", "tiny"), required=True)
    parser.add_argument("--mesh40-seeds", type=int, nargs=2, default=(0, 32),
                        metavar=("FIRST", "STOP"))
    args = parser.parse_args(argv)

    pkg, _ = loader.load_package()
    table = json.loads(workloads.REFERENCE_PATH.read_text()) \
        if workloads.REFERENCE_PATH.is_file() else {}
    out_dir = loader.ROOT / ".perfbench_out" / "reference"
    try:
        for name in workloads.NAMES:
            seeds = range(*args.mesh40_seeds) if name == "mesh40" else [0]
            for seed in seeds:
                wl = workloads.make(pkg, name, seed, args.scale)
                study = wl.run(out_dir, Tracer())
                checks = {k: v for k, v in study.checks.items()
                          if k != "final_state_matches_reference"}
                if study.error or not all(checks.values()):
                    print(f"{name} seed {seed}: not stored "
                          f"({study.error or checks})", file=sys.stderr)
                    continue
                key = str(seed) if name == "mesh40" else "any"
                table.setdefault(name, {}).setdefault(args.scale, {})[key] = \
                    study.final
                print(f"{name} {args.scale} seed {key}: stored", flush=True)
                workloads.REFERENCE_PATH.write_text(
                    json.dumps(table, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
