"""Regenerate ``tests/golden_runs.json``, the frozen outputs that
``test_golden_runs.py`` compares bit for bit.

Usage: ``PYTHONPATH=src python tests/make_golden_runs.py [--diff]``

With ``--diff`` it recomputes every run and writes nothing: for each run
that differs from the file it prints the largest relative move over the
final naturals and the last cost, the old and new last cost, whether the
per-sweep counts match, and the old and new counts (applied/rejected/
scheme_failed per sweep).  It exits 1 when any run differs and 0 when all
match.

Every loss x scheme pair runs on the bundled synthetic306 table with the
``ffep run`` defaults (s = 10, beta = 1, prior variance 25, quasi 0-1
epsilon 0.1), once looping for five sweeps and once streaming.  Each run
keeps the final posterior's natural parameters as hex floats, every sweep's
applied/rejected/scheme_failed counts and the last trace cost.

The file is a frozen contract, like the reference constants: regenerate it
only in a change that moves these numbers on purpose, and say so in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from ffep.engine import EpConfig, ep_run
from ffep.ingest import bundled_synthetic_path, bundled_synthetic_schema, load_csv, preprocess
from ffep.losses import loss_from_name
from ffep.schemes import SchemeKind

GOLDEN_PATH = Path(__file__).with_name("golden_runs.json")
MODES = ("looping", "streaming")
LOSSES = ("logistic", "hinge", "quasi01")
SCHEMES = ("la", "qla", "gq", "vq")
RUN_KEYS = [f"{m}/{loss}/{k}" for m in MODES for loss in LOSSES for k in SCHEMES]


def load_synthetic306():
    return preprocess(load_csv(bundled_synthetic_path(), bundled_synthetic_schema()),
                      name="synthetic306")


def golden_run(dataset, key: str) -> dict:
    """One run's frozen record; ``key`` is ``mode/loss/scheme``."""
    mode, loss, scheme = key.split("/")
    config = EpConfig(scheme=SchemeKind(scheme), loss=loss_from_name(loss), mode=mode)
    state, trace = ep_run(config, dataset)
    g = state.global_approx
    return {
        "log_scale": g.log_scale.hex(),
        "linear": [float(v).hex() for v in g.linear],
        "neg_half_precision": [float(v).hex() for v in g.neg_half_precision],
        "sweeps": [[s.applied, s.rejected, s.scheme_failed] for s in trace.sweeps],
        "last_cost": trace.records[-1].total_cost.hex(),
    }


def _numbers(run: dict) -> np.ndarray:
    """A run's final naturals and last cost, as floats."""
    hexes = [run["log_scale"], *run["linear"], *run["neg_half_precision"], run["last_cost"]]
    return np.array([float.fromhex(h) for h in hexes])


def diff_lines(golden_path: Path, runs: dict) -> list[str]:
    """One line per run in ``runs`` that differs from the file at ``golden_path``."""
    golden = json.loads(Path(golden_path).read_text())
    lines = []
    for key, run in runs.items():
        if key not in golden:
            lines.append(f"{key}: not in the file")
        elif run != golden[key]:
            old, new = _numbers(golden[key]), _numbers(run)
            with np.errstate(divide="ignore", invalid="ignore"):
                move = np.where(old == new, 0.0, np.abs(new - old) / np.abs(old))
            same = "match" if run["sweeps"] == golden[key]["sweeps"] else "differ"
            lines.append(f"{key}: max relative move {move.max():.2g}, "
                         f"last_cost {float(old[-1])!r} -> {float(new[-1])!r}, sweep counts {same} "
                         f"({_counts(golden[key])} -> {_counts(run)})")
    return lines


def _counts(run: dict) -> str:
    """A run's per-sweep status counts, as applied/rejected/scheme_failed per sweep."""
    return " ".join("/".join(str(n) for n in sweep) for sweep in run["sweeps"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="report the runs that differ from the file; write nothing")
    args = parser.parse_args(argv)
    dataset = load_synthetic306()
    runs = {key: golden_run(dataset, key) for key in RUN_KEYS}
    if args.diff:
        lines = diff_lines(GOLDEN_PATH, runs)
        print("\n".join(lines) if lines else f"all {len(runs)} runs match {GOLDEN_PATH.name}")
        return 1 if lines else 0
    lines = ",\n".join(f" {json.dumps(key)}: {json.dumps(run)}" for key, run in runs.items())
    GOLDEN_PATH.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {len(runs)} runs to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
