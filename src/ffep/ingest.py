"""Dataset loading and preparation for linear classifier training.

The pipeline is: load a delimited text file under a column schema
(``load_csv``), then ``preprocess`` into the numeric form the trainer
consumes: every feature column is centered across examples and scaled to
unit Euclidean norm, a constant baseline column of ones is appended as the
last coordinate (never normalized), and labels are mapped to {-1, +1}.
``partition`` finally splits example indices into mini-batches.

Conventions:

* categorical columns are one-hot expanded, one indicator per observed
  level, levels ordered lexicographically so the expanded dimension is
  reproducible across runs;
* the token "?" (or an empty field) marks a missing value: in a categorical
  column it becomes a level of its own, in a numeric column the whole row is
  dropped and the drop count logged;
* a numeric token that parses to a non-finite number ("nan", "inf",
  "1e400") is a data error naming its row and column, and so is a column
  that overflows while ``preprocess`` centers and scales it, by name;
* a constant raw column is all zeros after centering and is retained as-is
  (norm left at 0), preserving column indexing; a zero feature is inert in
  every loss.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ColumnSchema",
    "RawTable",
    "Dataset",
    "DataLoadError",
    "load_csv",
    "preprocess",
    "partition",
    "bundled_synthetic_path",
    "bundled_synthetic_schema",
]

logger = logging.getLogger(__name__)

MISSING_TOKENS = ("?", "")


class DataLoadError(ValueError):
    """A file could not be turned into a usable example table."""


@dataclass(frozen=True)
class ColumnSchema:
    """Column roles for a delimited example file.

    Columns are addressed by header name when ``has_header`` is true,
    otherwise by 0-based integer position.  ``label_map`` sends raw label
    tokens to +1 or -1.
    """

    label: str | int
    label_map: dict
    numeric: tuple = ()
    categorical: tuple = ()
    has_header: bool = True

    def __post_init__(self):
        object.__setattr__(self, "numeric", tuple(self.numeric))
        object.__setattr__(self, "categorical", tuple(self.categorical))
        if not self.numeric and not self.categorical:
            raise ValueError("schema names no feature columns")
        if not all(v in (-1, 1) for v in self.label_map.values()):
            raise ValueError("label_map values must be +1 or -1")


@dataclass(frozen=True)
class RawTable:
    """Numeric feature columns (categoricals already one-hot) plus labels."""

    columns: np.ndarray  # (N, n_cols) float
    column_names: tuple
    labels: np.ndarray  # (N,) values in {-1, +1}
    n_dropped: int = 0


@dataclass(frozen=True)
class Dataset:
    """Preprocessed examples; the last feature column is the baseline of ones."""

    features: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,) in {-1, +1}
    feature_names: tuple = ()
    name: str = "dataset"

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float).reshape(-1)
        if X.ndim != 2 or X.shape[0] != y.size:
            raise ValueError("features must be (N, d) with one label per row")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _resolve(col, names, row_len, where):
    if isinstance(col, int):
        if not 0 <= col < row_len:
            raise DataLoadError(f"{where}: column index {col} out of range")
        return col
    if names is None:
        raise DataLoadError(
            f"{where}: column {col!r} addressed by name but file has no header"
        )
    try:
        return names.index(col)
    except ValueError:
        raise DataLoadError(f"{where}: no column named {col!r} in header {names}")


def _columns(schema: ColumnSchema, names, width, where):
    """Positions of the label, numeric and categorical columns."""
    label_i = _resolve(schema.label, names, width, where)
    numeric_i = [(_resolve(c, names, width, where), c) for c in schema.numeric]
    categ_i = [(_resolve(c, names, width, where), c) for c in schema.categorical]
    return label_i, numeric_i, categ_i


def load_csv(path, schema: ColumnSchema) -> RawTable:
    """Read a comma-delimited example file into a numeric table.

    A table without categorical columns is first parsed as one block by
    ``np.loadtxt``.  Whatever that parse rejects (a missing or malformed
    token, an unknown label, a ragged row) is read again row by row, which
    drops rows with missing numeric values and raises DataLoadError naming
    the offending row on unparseable or non-finite numeric tokens or
    unmapped label values.
    """
    if not schema.categorical:
        try:
            return _load_block(path, schema)
        except (OSError, ValueError, KeyError):
            pass  # the row loop reads the file again and reports what it finds
    return _load_rows(path, schema)


def _load_block(path, schema: ColumnSchema) -> RawTable:
    """All-numeric tables in one ``np.loadtxt`` call; raises on anything else.

    Only the header and the first data row go through ``csv``, for the
    column names and the row width.  ``comments=None`` keeps a row that
    starts with "#" from being skipped silently.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = (row for row in reader if row)
        first = next(rows, None)
        header_lines = reader.line_num
        data = next(rows, None) if schema.has_header else first
    if data is None:
        raise ValueError("no data row")
    names = [c.strip() for c in first] if schema.has_header else None
    label_i, numeric_i, _ = _columns(schema, names, len(data), str(path))
    numeric = [i for i, _ in numeric_i]
    if label_i in numeric:
        raise ValueError("the label column is also a feature column")
    label_map = schema.label_map
    block = np.loadtxt(
        path, delimiter=",", comments=None, ndmin=2,
        skiprows=header_lines if schema.has_header else 0,
        converters={label_i: lambda tok: label_map[tok.strip()]},
    )
    columns = np.ascontiguousarray(block[:, numeric])
    if not np.isfinite(columns).all():
        raise ValueError("non-finite numeric value")
    return RawTable(
        columns=columns,
        column_names=tuple(str(c) for _, c in numeric_i),
        labels=block[:, label_i].copy(),
    )


def _load_rows(path, schema: ColumnSchema) -> RawTable:
    """load_csv row by row: missing values, categorical columns and every error."""
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataLoadError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataLoadError(f"{path}: file contains no rows")

    names = None
    if schema.has_header:
        names = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if not rows:
        raise DataLoadError(f"{path}: no data rows after header")

    width = len(rows[0])
    label_i, numeric_i, categ_i = _columns(schema, names, width, str(path))

    labels, numeric_vals, categ_vals = [], [], []
    n_dropped = 0
    for r, row in enumerate(rows):
        rowno = r + (2 if schema.has_header else 1)  # 1-based file line
        if len(row) != width:
            raise DataLoadError(f"{path}: row {rowno} has {len(row)} fields, expected {width}")
        tok = row[label_i].strip()
        if tok not in schema.label_map:
            raise DataLoadError(f"{path}: row {rowno} has unknown label value {tok!r}")
        nums = []
        drop = False
        for i, cname in numeric_i:
            t = row[i].strip()
            if t in MISSING_TOKENS:
                drop = True
                break
            try:
                value = float(t)
            except ValueError:
                raise DataLoadError(
                    f"{path}: row {rowno} has non-numeric value {t!r} in column {cname!r}"
                )
            if not math.isfinite(value):
                raise DataLoadError(
                    f"{path}: row {rowno} has non-finite value {t!r} in column {cname!r}"
                )
            nums.append(value)
        if drop:
            n_dropped += 1
            continue
        labels.append(schema.label_map[tok])
        numeric_vals.append(nums)
        categ_vals.append([row[i].strip() or "?" for i, _ in categ_i])

    if n_dropped:
        logger.info("%s: dropped %d rows with missing numeric values", path, n_dropped)
    if not labels:
        raise DataLoadError(f"{path}: no usable rows")

    columns = []
    col_names = []
    if numeric_i:
        arr = np.asarray(numeric_vals, dtype=float)
        for j, (_, cname) in enumerate(numeric_i):
            columns.append(arr[:, j])
            col_names.append(str(cname))
    for j, (_, cname) in enumerate(categ_i):
        toks = [v[j] for v in categ_vals]
        levels = sorted(set(toks))
        for lev in levels:
            columns.append(np.asarray([1.0 if t == lev else 0.0 for t in toks]))
            col_names.append(f"{cname}={lev}")

    return RawTable(
        columns=np.column_stack(columns),
        column_names=tuple(col_names),
        labels=np.asarray(labels, dtype=float),
        n_dropped=n_dropped,
    )


def preprocess(table: RawTable, name: str = "dataset") -> Dataset:
    """Center and unit-norm every feature column, then append the baseline.

    Raises DataLoadError on a table with fewer than 2 rows or no feature,
    and on a column that overflows float64 while being centered and scaled
    (values near 1e308, or a norm beyond it): dividing by its non-finite
    norm would leave it NaN or silently zero.
    """
    X = np.asarray(table.columns, dtype=float)
    if X.shape[0] < 2 or X.shape[1] < 1:
        raise DataLoadError(f"{name}: need at least 2 usable rows and 1 feature, "
                            f"not {X.shape[0]} and {X.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        X = X - X.mean(axis=0)
        norms = np.linalg.norm(X, axis=0)
    if not np.isfinite(norms).all():
        column = table.column_names[int(np.argmin(np.isfinite(norms)))]
        raise DataLoadError(f"{name}: column {column!r} overflows when centered and scaled")
    nonzero = norms > 0
    X[:, nonzero] /= norms[nonzero]
    X = np.column_stack([X, np.ones(X.shape[0])])
    return Dataset(
        features=X,
        labels=table.labels,
        feature_names=tuple(table.column_names) + ("baseline",),
        name=name,
    )


def partition(dataset: Dataset, s: int) -> list[np.ndarray]:
    """Split example indices into mini-batches of size ``s``: ordered,
    disjoint index arrays covering every example.

    Batches are contiguous ranges in dataset order; the remainder batch is
    kept.
    """
    n = dataset.n_examples
    if not 1 <= s <= n:
        raise ValueError(f"batch size {s} out of range [1, {n}]")
    order = np.arange(n)
    return [order[i : i + s] for i in range(0, n, s)]


def bundled_synthetic_path():
    """Path to the bundled synthetic survival-study file (N=306, 3 features).

    A stand-in with the size and flavor of a small clinical dataset: integer
    age/year/node-count features and a noisy binary outcome, for running the
    training benchmarks without external downloads.
    """
    from importlib.resources import files

    return files("ffep").joinpath("data/synthetic306.csv")


def bundled_synthetic_schema() -> ColumnSchema:
    """Schema matching the bundled synthetic survival file."""
    return ColumnSchema(
        label="status",
        label_map={"1": 1, "2": -1},
        numeric=("age", "year", "nodes"),
        has_header=True,
    )
