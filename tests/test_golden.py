"""Small CLI runs reproduce ``tests/golden.json`` (see ``make_golden.py``):
bit for bit on a platform with recorded hashes, to the file's ``rtol``
everywhere."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gasnetsim
import make_golden

GOLDEN = json.loads(make_golden.GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return make_golden.run_all(tmp_path_factory.mktemp("golden"))


def _changes(outputs):
    return {name: make_golden.max_rel_diff(GOLDEN["fingerprints"][name],
                                           make_golden.fingerprint(path))
            for name, path in outputs.items()}


def test_runs_write_the_recorded_files(outputs):
    assert sorted(outputs) == sorted(GOLDEN["fingerprints"])


def test_outputs_match_recorded_hashes(outputs):
    hashes = GOLDEN["sha256"].get(make_golden.platform_key())
    if hashes is None:
        pytest.skip(f"no hashes recorded for {make_golden.platform_key()}")
    changed = [name for name, path in outputs.items()
               if make_golden.sha256(path) != hashes.get(name)]
    # the fingerprints' relative changes say how far the outputs moved
    changes = _changes(outputs)
    assert not changed, {name: changes[name] for name in changed}


def test_last_samples_within_rtol(outputs):
    changes = _changes(outputs)
    assert all(d <= GOLDEN["rtol"] for d in changes.values()), changes


def test_a_run_under_another_hash_seed_writes_the_same_csv(outputs, tmp_path):
    run = next(r for r in make_golden.RUNS
               if r[:2] == ("run", make_golden.CONFIG))
    src = str(Path(gasnetsim.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONHASHSEED": "12345",
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    subprocess.run([sys.executable, "-m", "gasnetsim",
                    *make_golden.command_line(run), "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    assert make_golden.sha256(tmp_path / "run.csv") == \
        make_golden.sha256(outputs["run.csv"])
