"""What ingest and a run hold, measured by tracemalloc in tables.

A table is the dataset's (N, d) float64 array, baseline column included.
tracemalloc counts each numpy buffer as it is allocated and freed, so these
peaks are deterministic, unlike a process's peak RSS, which moves with the
allocator's heap layout and with huge pages.

``load_csv`` holds the parsed block and one copy of its numeric columns;
``preprocess`` holds the raw columns and the one table it builds in place;
a ``Dataset`` keeps that table and nothing table-sized beside it.
"""

import tracemalloc

import numpy as np
import pytest

from ffep.bench import RunConfig, run_experiment
from ffep.ingest import ColumnSchema, load_csv, preprocess
from ffep.losses import logistic
from ffep.schemes import SchemeKind

N, FEATURES = 6000, 50
TABLE = N * (FEATURES + 1) * 8  # bytes in the dataset's table
NAMES = tuple(f"x{i}" for i in range(FEATURES))
SCHEMA = ColumnSchema(label="y", label_map={"1": 1, "0": -1}, numeric=NAMES)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    rng = np.random.default_rng(32)
    path = tmp_path_factory.mktemp("memory") / "wide.csv"
    labels = rng.random(N) < 0.5
    np.savetxt(path, np.column_stack([labels, rng.standard_normal((N, FEATURES))]),
               fmt=",".join(["%d"] + ["%.6f"] * FEATURES),
               header=",".join(("y",) + NAMES), comments="")
    return path


@pytest.fixture
def traced():
    tracemalloc.start()
    yield tracemalloc
    tracemalloc.stop()


def test_ingest_holds_at_most_two_tables(csv_path, traced):
    table = load_csv(csv_path, SCHEMA)
    raw, load_peak = traced.get_traced_memory()
    assert load_peak <= 2.1 * TABLE

    traced.reset_peak()
    dataset = preprocess(table)  # kept alive: it is what a run holds
    assert traced.get_traced_memory()[1] <= raw + 1.1 * TABLE

    del table
    assert traced.get_traced_memory()[0] <= 1.05 * TABLE


def test_dataset_owns_one_table(csv_path):
    dataset = preprocess(load_csv(csv_path, SCHEMA))
    tables = [value for value in vars(dataset).values()
              if isinstance(value, np.ndarray) and value.ndim == 2]
    assert len(tables) == 1 and tables[0] is dataset.signed_rows
    assert dataset.signed_rows.base is None and dataset.signed_rows.shape == (N, FEATURES + 1)
    assert dataset.signed_rows.dtype == np.float64


def test_run_peaks_at_ingest(csv_path, tmp_path, traced):
    """A streaming run's peak is ingest's. The trace's cost margins come in
    blocks bounded apart from N (engine._MARGIN_BLOCK), so the trace is
    thinned to its first and last costs to leave the table's share alone."""
    config = RunConfig(dataset_path=csv_path, schema=SCHEMA, losses=(logistic(),),
                       schemes=(SchemeKind(kind="qla"),), out_dir=tmp_path,
                       batch_size=100, n_sweeps=None, mode="streaming",
                       cost_every=N // 100, timing_repetitions=1, with_references=False)
    run_experiment(config)
    assert traced.get_traced_memory()[1] <= 2.2 * TABLE
