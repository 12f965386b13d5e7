"""Shared fixtures and the acceptance-suite summary lines."""

import re

import numpy as np
import pytest

from ffep.factors import BoundFactor
from ffep.ingest import ColumnSchema, bundled_synthetic_path, load_csv, preprocess


@pytest.fixture(scope="session")
def synthetic_dataset():
    schema = ColumnSchema(
        label="status",
        label_map={"1": 1, "2": -1},
        numeric=("age", "year", "nodes"),
    )
    return preprocess(load_csv(bundled_synthetic_path(), schema), name="synthetic")


class _CountedRows(np.ndarray):
    """A factor's Z that records each product Z @ theta, the margins of a point.

    Its transpose and Z * Z are new arrays without ``passes``, so the
    derivative products Z^T d1 and (Z * Z)^T d2 are not counted.
    """

    def __matmul__(self, other):
        passes = getattr(self, "passes", None)
        if passes is not None:
            passes.append(np.asarray(other).tobytes())
        return np.asarray(self) @ other


@pytest.fixture
def margin_passes(monkeypatch):
    """The points whose margins a BoundFactor's log_value or log_grad_hessdiag form."""
    passes = []
    for name in ("log_value", "log_grad_hessdiag"):
        def counting(factor, theta, real=getattr(BoundFactor, name)):
            rows = factor.Z
            factor.Z = rows.view(_CountedRows)
            factor.Z.passes = passes
            try:
                return real(factor, theta)
            finally:
                factor.Z = rows

        monkeypatch.setattr(BoundFactor, name, counting)
    return passes


@pytest.fixture
def row_products(monkeypatch):
    """Every vector v whose product Z @ v a BoundFactor's rows form, whoever
    asks for it: the factor's own methods or a scheme reading ``Z``."""
    products = []
    init = BoundFactor.__init__

    def counting(factor, *args, **kwargs):
        init(factor, *args, **kwargs)
        factor.Z = factor.Z.view(_CountedRows)
        factor.Z.passes = products

    monkeypatch.setattr(BoundFactor, "__init__", counting)
    return products


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion, printed after the run."""
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
            if m:
                n = int(m.group(1))
                verdict = "PASS" if outcome == "passed" else "FAIL"
                if results.get(n) != "FAIL":
                    results[n] = verdict
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for n in sorted(results):
            terminalreporter.write_line(f"[acceptance] criterion {n}: {results[n]}")
