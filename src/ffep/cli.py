"""Command-line front end: run experiments, compute references, merge reports.

Subcommands:

* ``ffep run`` - execute a RunConfig (traces, timing table, manifest).
* ``ffep reference`` - offline minimizers only, written as references.json.
* ``ffep report`` - aggregate timing tables found under a results directory.

Run configs are JSON; every field has a default aimed at the bundled
synthetic dataset, and the flags --scheme, --loss, --batch-size, --sweeps,
--mode and --out override the file.  ``run`` and ``reference`` check the
whole config the same way before reading any data.  Exit codes: 0 success,
1 usage error, 2 data error, 3 at least one run or reference failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .bench import _TIMING_COLUMNS, RunConfig, _compute_references, run_experiment
from .engine import EpConfig
from .factors import PriorFactor
from .ingest import (
    ColumnSchema,
    DataLoadError,
    bundled_synthetic_path,
    bundled_synthetic_schema,
    load_csv,
    preprocess,
)
from .losses import _VALID, LossKind, loss_from_name
from .schemes import _DISPATCH, SchemeKind

__all__ = ["main"]

_USAGE_ERROR = 1
_DATA_ERROR = 2
_RUNS_FAILED = 3
# a real-valued setting: JSON's integers and floats, but not its true/false
_REAL = (int, float)
# a column: a header name, or a 0-based position in a file without a header
_COLUMN = (str, int)
# the default of a dataset key that must be given
_REQUIRED = object()

# Each config key, section by section: its default, its container (None, list
# or dict), the type of its value or items, and what an error calls that type.
# Every loss and every scheme; the rest as the class that owns the setting has it.
_SETTINGS = {
    "losses": (list(_VALID), list, str, "a list of names"),
    "epsilon": (LossKind.epsilon, None, _REAL, "a number"),
    "schemes": (list(_DISPATCH), list, str, "a list of names"),
    "batch_size": (EpConfig.batch_size, None, int, "an integer"),
    "sweeps": (EpConfig.n_sweeps, None, (int, type(None)), "an integer or null"),
    "mode": (EpConfig.mode, None, str, "a string"),
    "beta": (EpConfig.beta, None, _REAL, "a number"),
    "prior_variance": (PriorFactor.variance, None, _REAL, "a number"),
    "out": ("results", None, str, "a string"),
    "timing_repetitions": (RunConfig.timing_repetitions, None, int, "an integer"),
    "cost_every": (EpConfig.cost_every, None, int, "an integer"),
    "references": (RunConfig.with_references, None, bool, "true or false"),
    "gamma": (SchemeKind.gamma, None, _REAL + (type(None),), "a number or null"),
    "newton_tol": (SchemeKind.newton_tol, None, _REAL, "a number"),
}
_DATASET = {
    "path": (_REQUIRED, None, str, "a string"),
    "label": (_REQUIRED, None, _COLUMN, "a column name or position"),
    "label_map": (_REQUIRED, dict, int, "an object of integers"),
    "numeric": ([], list, _COLUMN, "a list of columns"),
    "categorical": ([], list, _COLUMN, "a list of columns"),
    "has_header": (ColumnSchema.has_header, None, bool, "true or false"),
    "name": (None, None, (str, type(None)), "a string or null"),
}
# each flag and the config key it overrides
_FLAGS = {"loss": "losses", "scheme": "schemes", "batch_size": "batch_size",
          "sweeps": "sweeps", "mode": "mode", "out": "out"}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; our contract reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_ERROR, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="ffep", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--loss", action="append",
                       help="loss name (repeatable or comma-separated)")
        p.add_argument("--out", help="output directory")

    run = sub.add_parser("run", help="execute an experiment config")
    add_common(run)
    run.add_argument("--scheme", action="append",
                     help="scheme name (repeatable or comma-separated)")
    run.add_argument("--batch-size", type=int)
    run.add_argument("--sweeps", type=int)
    run.add_argument("--mode", choices=["looping", "streaming"])

    ref = sub.add_parser("reference", help="compute offline minimizers only")
    add_common(ref)

    rep = sub.add_parser("report", help="aggregate timing tables")
    rep.add_argument("--out", required=True,
                     help="results directory to scan for timing.csv files")
    return parser


def _split_names(values):
    names = []
    for v in values:
        names.extend(s.strip() for s in v.split(",") if s.strip())
    return names


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise _UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise _UsageError(f"config file must hold a JSON object, not {cfg!r}")
    return cfg


def _is(value, kind) -> bool:
    """isinstance(value, kind), except that a bool is a ``kind`` only when
    ``kind`` is bool itself."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _checked(section: dict, table: dict, prefix: str, what: str) -> dict:
    """Every key of ``table``, read from ``section`` or else its default.

    An unknown, missing or mistyped key is a usage error naming it as
    ``<prefix><key>``; ``what`` names the section's unknown keys.
    """
    unknown = set(section) - set(table)
    if unknown:
        raise _UsageError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
    checked = {}
    for key, (default, container, kind, phrase) in table.items():
        value = section.get(key, default)
        if value is _REQUIRED:
            raise _UsageError(f"config key {prefix + key!r} is missing")
        if container is None:
            typed = _is(value, kind)
        else:
            items = value.values() if isinstance(value, dict) else value
            typed = isinstance(value, container) and all(_is(v, kind) for v in items)
        if not typed:
            raise _UsageError(f"config key {prefix + key!r} must be {phrase}, not {value!r}")
        checked[key] = value
    return checked


def _resolve_dataset(cfg: dict):
    """Dataset path, schema and name from a config's ``dataset`` section (or
    the bundled table's), checked before any data is read."""
    section = cfg.get("dataset")
    if section is None:
        return bundled_synthetic_path(), bundled_synthetic_schema(), "synthetic306"
    if not isinstance(section, dict):
        raise _UsageError(f"config key 'dataset' must be an object, not {section!r}")
    keys = _checked(section, _DATASET, "dataset.", "dataset")
    path, name = keys.pop("path"), keys.pop("name")
    try:
        schema = ColumnSchema(**keys)
    except ValueError as exc:
        raise _UsageError(f"bad dataset section in config: {exc}") from exc
    if path == "bundled:synthetic":
        path = bundled_synthetic_path()
    return path, schema, name or Path(path).stem


def _build_run_config(args) -> RunConfig:
    """The RunConfig of the config file and the flags, which override it;
    both ``run`` and ``reference`` read it, so both reject the same values."""
    cfg = _load_config_file(args.config) if args.config else {}
    path, schema, name = _resolve_dataset(cfg)
    settings = {k: v for k, v in cfg.items() if k != "dataset"}
    for flag, key in _FLAGS.items():
        value = getattr(args, flag, None)  # ``reference`` has no protocol flags
        if value not in (None, ""):
            settings[key] = _split_names(value) if key in ("losses", "schemes") else value
    s = _checked(settings, _SETTINGS, "", "config")
    try:
        return RunConfig(
            dataset_path=path,
            schema=schema,
            losses=tuple(loss_from_name(n, epsilon=float(s["epsilon"])) for n in s["losses"]),
            prior=PriorFactor(variance=float(s["prior_variance"])),
            schemes=tuple(SchemeKind(n, newton_tol=float(s["newton_tol"]), gamma=s["gamma"])
                          for n in s["schemes"]),
            out_dir=s["out"],
            dataset_name=name,
            batch_size=s["batch_size"],
            n_sweeps=s["sweeps"],
            mode=s["mode"],
            beta=float(s["beta"]),
            cost_every=s["cost_every"],
            timing_repetitions=s["timing_repetitions"],
            with_references=s["references"],
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_run(args) -> int:
    config = _build_run_config(args)
    manifest = run_experiment(config)
    for run in manifest["runs"]:
        ref = run["reference_cost"]
        ref_text = "n/a" if ref is None else f"{ref:.4f}"
        print(
            f"{run['loss']:>8s} {run['scheme']:>4s}  "
            f"final_cost={run['final_cost']:.4f}  reference={ref_text}  "
            f"rejected={run['rejected_updates']}  "
            f"scheme_failures={run['scheme_failures']}"
        )
    out = Path(config.out_dir)
    print(f"wrote {len(manifest['runs'])} trace file(s), "
          f"{out / 'timing.csv'} and {out / 'manifest.json'}")
    if manifest["failures"]:
        for failure in manifest["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
        return _RUNS_FAILED
    return 0


def _cmd_reference(args) -> int:
    config = _build_run_config(args)
    dataset = preprocess(load_csv(config.dataset_path, config.schema), name=config.dataset_name)
    try:
        refs = _compute_references(dataset, config.losses, config.prior)
    except RuntimeError as exc:
        failure = {"stage": "reference", "error": str(exc)}  # as ``ffep run`` reports it
        print(f"FAILED: {failure}", file=sys.stderr)
        return _RUNS_FAILED
    for loss_name, ref in refs.items():
        gap = "n/a" if ref["duality_gap"] is None else f"{ref['duality_gap']:.2e}"
        print(f"{loss_name:>8s}  cost={ref['cost']:.6f}  converged={ref['converged']}  "
              f"duality_gap={gap}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "references.json"
    with open(target, "w") as fh:
        json.dump({"dataset": config.dataset_name, "references": refs}, fh, indent=2)
    print(f"wrote {target}")
    return 0


def _cmd_report(args) -> int:
    root = Path(args.out)
    tables = sorted(root.rglob("timing.csv"))
    if not tables:
        print(f"no timing.csv found under {root}", file=sys.stderr)
        return _DATA_ERROR
    rows = []
    for table in tables:
        with open(table, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [h for h in _TIMING_COLUMNS if h not in (reader.fieldnames or ())]
            if missing:
                raise DataLoadError(
                    f"{table}: no column named {', '.join(map(repr, missing))}")
            for row in reader:
                short = [h for h in _TIMING_COLUMNS if row[h] is None]
                if short:
                    raise DataLoadError(
                        f"{table}: row {reader.line_num} has no value in column {short[0]!r}")
                rows.append(row)
    print(",".join(_TIMING_COLUMNS))
    for row in rows:
        print(",".join(row[h] for h in _TIMING_COLUMNS))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "reference": _cmd_reference, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"ffep: error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (DataLoadError, FileNotFoundError) as exc:
        print(f"ffep: data error: {exc}", file=sys.stderr)
        return _DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
