"""Alternating pairs of benchmark runs of two revisions, summarised as JSON.

Usage, from the root of a git checkout::

    python3 tools/bench_pairs.py --parent HEAD^ --change HEAD \
        --workload five_node_1h --seeds 501-510 --seconds 20 \
        --label face_pass

Each revision (any tree-ish ``git archive`` accepts) is exported into its
own temporary directory, and every run is its own process of that tree's
``perfbench/run.py --trace 0``.  Pair ``i`` runs seed ``A + i`` on both
trees, the parent first when ``i`` is even; the runs follow one another.

``BENCH_<label>.json`` gets one section per workload and seed range,
added to the file when it exists and was written for the same two
revisions: every run's result line and study count, and for every
end-to-end metric both sides' medians and quartiles, the parent's
interquartile range, the change's median over the parent's and the
number of pairs in which the change read lower, with the exact two-sided
sign-test p-value of that count (tied pairs dropped).  The exit status
is 1 unless every run read ``correct: true``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def git(*args) -> bytes:
    return subprocess.run(("git", *args), check=True,
                          capture_output=True).stdout


def export(rev: str, into: Path) -> str:
    """Extract the tracked files of ``rev`` into ``into``; return the
    object name ``rev`` resolves to."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar",
                                             rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return git("rev-parse", "--verify", rev).decode().strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One benchmark process in ``tree``: its study count and result line,
    or the failure as an incorrect result, and its machine context."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"studies": 0, "result": {
            "correct": False, "exit_status": proc.returncode,
            "error": tail}}, None
    return {"studies": len(report["studies"]), "result": result}, \
        report.get("context")


def sign_test_p(lower: int, higher: int) -> float:
    """Exact two-sided sign-test p-value of ``lower`` pairs against
    ``higher`` ones, ties already dropped: twice the binomial(n, 1/2) tail
    of the rarer side, at most 1."""
    n = lower + higher
    tail = sum(math.comb(n, i) for i in range(min(lower, higher) + 1))
    return min(1.0, 2.0 * tail / 2.0 ** n)


def compare(runs: list) -> dict:
    """Per-metric medians, quartiles and pair wins of the paired runs."""
    values = {side: [r["result"].get("metrics", {}) for r in runs
                     if r["side"] == side] for side in SIDES}
    # the metrics every run reports: none when a run failed
    names = set.intersection(*(set(m) for v in values.values() for m in v))
    summary = {}
    for name in sorted(names):
        parent, change = ([m[name]["value"] for m in values[side]]
                          for side in SIDES)
        lower = sum(c < p for p, c in zip(parent, change))
        higher = sum(c > p for p, c in zip(parent, change))
        quartiles = {side: statistics.quantiles(v, n=4, method="inclusive")
                     if len(v) > 1 else [v[0], v[0]]
                     for side, v in zip(SIDES, (parent, change))}
        p_q, c_q = quartiles["parent"], quartiles["change"]
        summary[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "change_over_parent":
                statistics.median(change) / statistics.median(parent),
            "change_lower_in_pairs": f"{lower}/{len(parent)}",
            "sign_test_p": sign_test_p(lower, higher),
            "parent_quartiles": [p_q[0], p_q[-1]],
            "parent_iqr": p_q[-1] - p_q[0],
            "change_quartiles": [c_q[0], c_q[-1]]}
    return summary


def parse_seeds(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        seeds = range(0)
    if not seeds:
        raise argparse.ArgumentTypeError(f"seeds {text!r} are not A-B with "
                                         f"A <= B")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="inclusive range A-B, one pair per seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--label", default="pairs",
                        help="the file written is BENCH_<label>.json")
    args = parser.parse_args(argv)
    path = Path(f"BENCH_{args.label}.json")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        revs = {side: export(getattr(args, side), trees[side])
                for side in SIDES}
        doc = json.loads(path.read_text()) if path.exists() else {}
        if doc and (doc.get("parent"), doc.get("change")) != \
                (revs["parent"], revs["change"]):
            parser.error(f"{path} holds runs of other revisions")
        runs, context = [], None
        for pair, seed in enumerate(args.seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run, ran_on = run_once(trees[side], args.workload, seed,
                                       args.seconds)
                context = context or ran_on
                runs.append({"seed": seed, "pair": pair, "side": side,
                             "ran_first": side == order[0], **run})
                print(f"pair {pair} seed {seed} {side}: studies "
                      f"{run['studies']}, {json.dumps(run['result'])}",
                      file=sys.stderr)

    correct = all(r["result"].get("correct") is True for r in runs)
    seeds = f"{args.seeds[0]}-{args.seeds[-1]}"
    doc.update({
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds T --trace 0",
        "method": "alternating pairs by tools/bench_pairs.py, each run in "
                  "its own process from a git archive of its revision; the "
                  "parent runs first on even pairs (0-based); runs one "
                  "after another",
        "parent": revs["parent"], "change": revs["change"]})
    doc.setdefault("context", context)
    doc.setdefault("workloads", {})[f"{args.workload} seeds {seeds}"] = {
        "workload": args.workload, "seeds": seeds, "seconds": args.seconds,
        "summary": compare(runs),
        "studies": {side: [r["studies"] for r in runs if r["side"] == side]
                    for side in SIDES},
        "every_run_correct": correct,
        "runs": runs}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
