"""Command-line front end: run experiments, compute references, merge reports.

Subcommands:

* ``ffep run`` - execute a RunConfig (traces, timing table, manifest).
* ``ffep reference`` - offline minimizers only, written as references.json.
* ``ffep report`` - aggregate timing tables found under a results directory.

Run configs are JSON; every field has a default aimed at the bundled
synthetic dataset, and the flags --scheme, --loss, --batch-size, --sweeps,
--mode and --out override the file.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 at least one run or reference failed.
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
_DATASET_KEYS = ("path", "label", "label_map", "numeric", "categorical", "has_header", "name")

# every loss and every scheme; the rest as the class that owns the setting has it
_DEFAULTS = {
    "losses": list(_VALID),
    "epsilon": LossKind.epsilon,
    "schemes": list(_DISPATCH),
    "batch_size": EpConfig.batch_size,
    "sweeps": EpConfig.n_sweeps,
    "mode": EpConfig.mode,
    "beta": EpConfig.beta,
    "prior_variance": PriorFactor.variance,
    "out": "results",
    "timing_repetitions": RunConfig.timing_repetitions,
    "cost_every": EpConfig.cost_every,
    "references": RunConfig.with_references,
    "gamma": SchemeKind.gamma,
    "newton_tol": SchemeKind.newton_tol,
}


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
            return json.load(fh)
    except FileNotFoundError as exc:
        raise _UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file is not valid JSON: {exc}") from exc


def _resolve_dataset(cfg: dict):
    """Dataset path + schema from a config's ``dataset`` section (or the bundled one).

    Every key is typed here, before any data is read; a bad or missing one
    is a usage error naming it as ``dataset.<key>``.
    """
    section = cfg.get("dataset")
    if section is None:
        return bundled_synthetic_path(), bundled_synthetic_schema(), "synthetic306"
    if not isinstance(section, dict):
        raise _UsageError(f"config key 'dataset' must be an object, not {section!r}")
    unknown = set(section) - set(_DATASET_KEYS)
    if unknown:
        raise _UsageError(f"unknown dataset keys: {', '.join(sorted(unknown))}")
    d = {"dataset.numeric": [], "dataset.categorical": [], "dataset.has_header": True,
         "dataset.name": None}
    d.update((f"dataset.{k}", v) for k, v in section.items())
    try:
        path = _typed(d, "dataset.path", str, "a string")
        schema = ColumnSchema(
            label=_typed(d, "dataset.label", _COLUMN, "a column name or position"),
            label_map=_typed_items(d, "dataset.label_map", dict, int, "an object of integers"),
            numeric=_typed_items(d, "dataset.numeric", list, _COLUMN, "a list of columns"),
            categorical=_typed_items(d, "dataset.categorical", list, _COLUMN,
                                     "a list of columns"),
            has_header=_typed(d, "dataset.has_header", bool, "true or false"),
        )
        name = _typed(d, "dataset.name", (str, type(None)), "a string or null")
    except KeyError as exc:
        raise _UsageError(f"config key {exc} is missing") from exc
    except ValueError as exc:
        raise _UsageError(f"bad dataset section in config: {exc}") from exc
    if path == "bundled:synthetic":
        path = bundled_synthetic_path()
    return path, schema, name or Path(str(path)).stem


def _merged_settings(args, cfg: dict) -> dict:
    settings = dict(_DEFAULTS)
    unknown = set(cfg) - set(_DEFAULTS) - {"dataset"}
    if unknown:
        raise _UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    settings.update(cfg)
    if args.loss:
        settings["losses"] = _split_names(args.loss)
    if getattr(args, "scheme", None):
        settings["schemes"] = _split_names(args.scheme)
    if getattr(args, "batch_size", None) is not None:
        settings["batch_size"] = args.batch_size
    if getattr(args, "sweeps", None) is not None:
        settings["sweeps"] = args.sweeps
    if getattr(args, "mode", None):
        settings["mode"] = args.mode
    if args.out:
        settings["out"] = args.out
    return settings


def _is(value, kind) -> bool:
    """isinstance(value, kind), except that a bool is a ``kind`` only when
    ``kind`` is bool itself."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _typed(s: dict, key: str, kind, what: str):
    """The settings' ``key``, which must be a ``kind``; a bool is no integer."""
    value = s[key]
    if not _is(value, kind):
        raise _UsageError(f"config key {key!r} must be {what}, not {value!r}")
    return value


def _names(s: dict, key: str) -> list:
    """The settings' ``key``, which must be a list of names."""
    return _typed_items(s, key, list, str, "a list of names")


def _typed_items(s: dict, key: str, container, kind, what: str):
    """The settings' ``key``: a ``container`` (list or dict) whose items, or
    values, are each a ``kind`` as ``_typed`` reads it."""
    value = s[key]
    items = value.values() if isinstance(value, dict) else value
    if not (isinstance(value, container) and all(_is(v, kind) for v in items)):
        raise _UsageError(f"config key {key!r} must be {what}, not {value!r}")
    return value


def _losses_and_prior(s: dict):
    """The settings' losses and prior; a bad value is a usage error."""
    try:
        epsilon = float(_typed(s, "epsilon", _REAL, "a number"))
        losses = tuple(loss_from_name(n, epsilon=epsilon) for n in _names(s, "losses"))
        return losses, PriorFactor(variance=float(_typed(s, "prior_variance", _REAL, "a number")))
    except (TypeError, ValueError, OverflowError) as exc:
        raise _UsageError(str(exc)) from exc


def _build_run_config(args) -> RunConfig:
    cfg = _load_config_file(args.config) if args.config else {}
    path, schema, name = _resolve_dataset(cfg)
    s = _merged_settings(args, cfg)
    losses, prior = _losses_and_prior(s)
    try:
        newton_tol = float(_typed(s, "newton_tol", _REAL, "a number"))
        gamma = _typed(s, "gamma", _REAL + (type(None),), "a number or null")
        schemes = tuple(
            SchemeKind(n, newton_tol=newton_tol, gamma=gamma) for n in _names(s, "schemes")
        )
        return RunConfig(
            dataset_path=path,
            schema=schema,
            losses=losses,
            schemes=schemes,
            out_dir=_typed(s, "out", str, "a string"),
            dataset_name=name,
            batch_size=_typed(s, "batch_size", int, "an integer"),
            n_sweeps=_typed(s, "sweeps", (int, type(None)), "an integer or null"),
            mode=s["mode"],
            beta=float(_typed(s, "beta", _REAL, "a number")),
            prior=prior,
            cost_every=_typed(s, "cost_every", int, "an integer"),
            timing_repetitions=_typed(s, "timing_repetitions", int, "an integer"),
            with_references=_typed(s, "references", bool, "true or false"),
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
    cfg = _load_config_file(args.config) if args.config else {}
    path, schema, name = _resolve_dataset(cfg)
    s = _merged_settings(args, cfg)
    losses, prior = _losses_and_prior(s)
    out = Path(_typed(s, "out", str, "a string"))
    dataset = preprocess(load_csv(path, schema), name=name)
    try:
        refs = _compute_references(dataset, losses, prior)
    except RuntimeError as exc:
        failure = {"stage": "reference", "error": str(exc)}  # as ``ffep run`` reports it
        print(f"FAILED: {failure}", file=sys.stderr)
        return _RUNS_FAILED
    for loss_name, ref in refs.items():
        gap = "n/a" if ref["duality_gap"] is None else f"{ref['duality_gap']:.2e}"
        print(f"{loss_name:>8s}  cost={ref['cost']:.6f}  converged={ref['converged']}  "
              f"duality_gap={gap}")
    out.mkdir(parents=True, exist_ok=True)
    target = out / "references.json"
    with open(target, "w") as fh:
        json.dump({"dataset": name, "references": refs}, fh, indent=2)
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
