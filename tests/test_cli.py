"""End-to-end tests of the command-line interface.

Exit-code contract: 0 success, 1 usage error (bad flags, bad config), 2 data
error (missing or malformed dataset), 3 when at least one configured run
failed while others may have succeeded.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ffep
from ffep.cli import main
from ffep.ingest import bundled_synthetic_path


@pytest.fixture()
def small_csv(tmp_path):
    lines = open(bundled_synthetic_path()).read().splitlines()
    path = tmp_path / "small.csv"
    path.write_text("\n".join(lines[:41]) + "\n")
    return path


def write_config(tmp_path, small_csv, **overrides):
    cfg = {
        "dataset": {
            "path": str(small_csv),
            "label": "status",
            "label_map": {"1": 1, "2": -1},
            "numeric": ["age", "year", "nodes"],
            "name": "small",
        },
        "losses": ["logistic"],
        "schemes": ["qla"],
        "timing_repetitions": 1,
        "out": str(tmp_path / "results"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRunCommand:
    def test_config_file_run_writes_all_outputs(self, tmp_path, small_csv, capsys):
        cfg = write_config(tmp_path, small_csv)
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "results"
        assert (out / "small_logistic_qla.trace.csv").exists()
        assert (out / "timing.csv").exists()
        assert (out / "manifest.json").exists()
        stdout = capsys.readouterr().out
        assert "final_cost=" in stdout
        assert "wrote 1 trace file(s)" in stdout

    def test_flags_override_the_config(self, tmp_path, small_csv):
        cfg = write_config(tmp_path, small_csv)
        out = tmp_path / "override"
        code = main(["run", "--config", str(cfg), "--loss", "hinge",
                     "--scheme", "la,qla", "--out", str(out)])
        assert code == 0
        names = sorted(p.name for p in out.glob("*.trace.csv"))
        assert names == ["small_hinge_la.trace.csv", "small_hinge_qla.trace.csv"]

    def test_defaults_to_the_bundled_dataset(self, tmp_path):
        out = tmp_path / "results"
        code = main(["run", "--loss", "logistic", "--scheme", "qla",
                     "--sweeps", "1", "--out", str(out)])
        assert code == 0
        assert (out / "synthetic306_logistic_qla.trace.csv").exists()

    def test_unknown_flag_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bogus"])
        assert exc.value.code == 1

    def test_unknown_scheme_name_is_a_usage_error(self, tmp_path, small_csv, capsys):
        cfg = write_config(tmp_path, small_csv)
        assert main(["run", "--config", str(cfg), "--scheme", "newton"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, small_csv):
        cfg = write_config(tmp_path, small_csv, sweeeps=3)
        assert main(["run", "--config", str(cfg)]) == 1

    def test_missing_config_file_is_a_usage_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_malformed_config_file_is_a_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 1

    def test_missing_dataset_file_is_a_data_error(self, tmp_path, small_csv, capsys):
        cfg = write_config(tmp_path, small_csv)
        small_csv.unlink()
        assert main(["run", "--config", str(cfg)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_failed_runs_exit_with_code_three(self, tmp_path, small_csv, capsys):
        # Streaming is a single pass; asking for five sweeps fails every run.
        cfg = write_config(tmp_path, small_csv, mode="streaming", sweeps=5)
        assert main(["run", "--config", str(cfg)]) == 3
        assert "FAILED" in capsys.readouterr().err

    def test_run_never_imports_scipy(self, tmp_path):
        # every loss and scheme, so the Newton and the Powell references both run
        out = tmp_path / "results"
        script = (
            "import sys\n"
            "from ffep.cli import main\n"
            "code = main(['run', '--loss', 'logistic,hinge,quasi01',\n"
            "             '--scheme', 'la,qla,gq,vq', '--sweeps', '1',\n"
            f"             '--out', {str(out)!r}])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(code)\n"
        )
        src = str(Path(ffep.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert len(list(out.glob("*.trace.csv"))) == 12
        assert json.loads((out / "manifest.json").read_text())["references"].keys() \
            == {"logistic", "hinge", "quasi01"}
        assert proc.stdout.splitlines()[-1] == "[]"


class TestReferenceCommand:
    def test_writes_references_json(self, tmp_path, small_csv, capsys):
        cfg = write_config(tmp_path, small_csv,
                           losses=["logistic", "hinge"])
        assert main(["reference", "--config", str(cfg)]) == 0
        data = json.loads((tmp_path / "results" / "references.json").read_text())
        assert data["dataset"] == "small"
        logistic_ref = data["references"]["logistic"]
        assert logistic_ref["converged"]
        assert np.isfinite(logistic_ref["cost"])
        assert len(logistic_ref["theta"]) == 4  # three features plus baseline
        assert "cost=" in capsys.readouterr().out

    def test_accepts_the_bundled_dataset_token(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "dataset": {
                "path": "bundled:synthetic",
                "label": "status",
                "label_map": {"1": 1, "2": -1},
                "numeric": ["age", "year", "nodes"],
                "name": "synthetic",
            },
            "losses": ["logistic"],
            "out": str(tmp_path / "results"),
        }))
        assert main(["reference", "--config", str(cfg)]) == 0
        assert (tmp_path / "results" / "references.json").exists()


class TestReportCommand:
    def timing_lines(self, scheme):
        return (
            "dataset,N,d,s,loss,scheme,mean_ms_per_minibatch\n"
            f"toy,40,4,10,logistic,{scheme},0.5\n"
        )

    def test_merges_timing_tables(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / "timing.csv").write_text(self.timing_lines("la"))
        (tmp_path / "b" / "timing.csv").write_text(self.timing_lines("vq"))
        assert main(["report", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("dataset,")
        assert sum("toy,40,4,10,logistic" in line for line in out) == 2

    def test_foreign_table_is_a_data_error_before_any_output(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / "timing.csv").write_text(self.timing_lines("la"))
        foreign = tmp_path / "b" / "timing.csv"
        foreign.write_text("dataset,N\ntoy,40\n")
        assert main(["report", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(foreign) in captured.err
        assert "'d'" in captured.err
        assert "Traceback" not in captured.err

    def test_short_row_is_a_data_error(self, tmp_path, capsys):
        table = tmp_path / "timing.csv"
        table.write_text(self.timing_lines("la") + "toy,40,4,10,logistic\n")
        assert main(["report", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(table) in captured.err
        assert "row 3" in captured.err
        assert "'scheme'" in captured.err

    def test_empty_directory_is_a_data_error(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert "no timing.csv" in capsys.readouterr().err


class TestConsoleScript:
    """The ``ffep`` console script declared in pyproject.toml.

    The declared entry point is run the way an installer's wrapper runs it,
    against the checkout under test, so the test needs no install; an
    ``ffep`` script on PATH, where one exists, is run as well.
    """

    @staticmethod
    def assert_help_lists_subcommands(cmd, **kwargs):
        proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True, **kwargs)
        assert proc.returncode == 0, proc.stderr
        # the subcommand choice list; bare words would also match the description
        assert "{run,reference,report}" in proc.stdout

    def test_entry_point_prints_subcommands(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        spec = tomllib.loads(pyproject.read_text())["project"]["scripts"]["ffep"]
        module, attr = (part.strip() for part in spec.split(":"))
        wrapper = (
            "import sys\n"
            "sys.argv[0] = 'ffep'\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        src = str(Path(ffep.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.assert_help_lists_subcommands(
            [sys.executable, "-c", wrapper], env=env, cwd=tmp_path
        )

        exe = shutil.which("ffep")
        if exe is not None:
            self.assert_help_lists_subcommands([exe])
