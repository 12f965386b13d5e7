"""Golden runs: 24 runs on synthetic306 must reproduce their frozen outputs bit for bit.

``golden_runs.json`` holds, for each loss x scheme pair in looping and in
streaming mode, the final posterior's natural parameters as hex floats, the
per-sweep status counts and the last trace cost (``make_golden_runs.py``
describes the runs and regenerates the file).  Every value is compared
exactly, so a refactor that claims identical numbers is checked here.

Frozen on x86_64 Linux with Python 3.11.7, numpy 2.4.6 and OpenBLAS
0.3.31 (scipy-openblas, DYNAMIC_ARCH, AVX-512 CPU).  All 24 runs matched
with one and with two BLAS threads.  Another CPU, BLAS or numpy build may
round differently; a mismatch there is not by itself a defect.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import make_golden_runs
from make_golden_runs import GOLDEN_PATH, RUN_KEYS, diff_lines, golden_run, load_synthetic306

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def synthetic306():
    return load_synthetic306()


def test_the_file_holds_every_run():
    assert sorted(GOLDEN) == sorted(RUN_KEYS)


@pytest.mark.parametrize("key", RUN_KEYS)
def test_run_matches_its_frozen_outputs(synthetic306, key):
    assert golden_run(synthetic306, key) == GOLDEN[key]


def test_diff_reports_only_the_perturbed_run(synthetic306, tmp_path):
    perturbed = json.loads(GOLDEN_PATH.read_text())
    run = perturbed["looping/hinge/la"]
    run["linear"][1] = (float.fromhex(run["linear"][1]) * (1.0 + 1e-9)).hex()
    copy = tmp_path / "golden_runs.json"
    copy.write_text(json.dumps(perturbed))
    runs = {key: golden_run(synthetic306, key) for key in RUN_KEYS}
    last = float.fromhex(run["last_cost"])
    assert diff_lines(copy, runs) == [
        f"looping/hinge/la: max relative move 1e-09, last_cost {last!r} -> {last!r}, "
        "sweep counts match (31/0/0 31/0/0 31/0/0 31/0/0 31/0/0 -> "
        "31/0/0 31/0/0 31/0/0 31/0/0 31/0/0)"]


def test_diff_exits_1_when_a_run_differs_and_0_when_all_match(monkeypatch, tmp_path, capsys):
    perturbed = json.loads(GOLDEN_PATH.read_text())
    run = perturbed["streaming/logistic/gq"]
    run["sweeps"][0][0] += 1
    copy = tmp_path / "golden_runs.json"
    copy.write_text(json.dumps(perturbed))
    monkeypatch.setattr(make_golden_runs, "GOLDEN_PATH", copy)
    assert make_golden_runs.main(["--diff"]) == 1
    last = float.fromhex(run["last_cost"])
    assert capsys.readouterr().out == (
        f"streaming/logistic/gq: max relative move 0, last_cost {last!r} -> {last!r}, "
        "sweep counts differ (32/0/0 -> 31/0/0)\n")
    assert json.loads(copy.read_text()) == perturbed  # --diff writes nothing

    script = Path(make_golden_runs.__file__)
    src = script.parents[1] / "src"
    done = subprocess.run([sys.executable, str(script), "--diff"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == f"all {len(RUN_KEYS)} runs match golden_runs.json\n"
