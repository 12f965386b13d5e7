"""The benchmark's wrappers still find the ffep names they wrap.

``perfbench/spans.py`` replaces module attributes and ``BoundFactor``
methods by name, and ``perfbench/sequence.py``'s ``Probe`` replaces the
names ``bench.run_experiment`` calls.  A rename in ffep would break
``perfbench/run.py --trace 1`` without failing any other test, so a tiny
traced experiment runs here, in a fresh interpreter, because the wrappers
patch ffep's modules for the rest of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from spans import Tracer, instrument
import sequence
from ffep import bench, ingest
from ffep.losses import loss_from_name
from ffep.schemes import scheme_from_name

tracer = Tracer()
instrument(tracer)
probe = sequence.Probe(bench, tracer)
manifest = bench.run_experiment(bench.RunConfig(
    dataset_path=ingest.bundled_synthetic_path(),
    schema=ingest.bundled_synthetic_schema(),
    losses=(loss_from_name("logistic"),),
    schemes=(scheme_from_name("la"), scheme_from_name("qla"), scheme_from_name("gq")),
    out_dir=sys.argv[1], dataset_name="synthetic306", n_sweeps=1,
    timing_repetitions=1))
print(json.dumps({
    "spans": sorted({name for name, _ in tracer.calls}),
    "la_spans": sorted({name for name, tag in tracer.calls if tag == "la"}),
    "fits": sorted("/".join(key) for key in probe.fits),
    "failures": manifest["failures"],
}))
"""


def test_spans_and_probe_see_a_traced_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["failures"] == []
    # la and qla call log_value and log_grad_hessdiag; gq calls log_value_many
    for name in ("factors.log_value", "factors.log_value_many",
                 "factors.log_grad_hessdiag", "schemes.approximate",
                 "engine.gate_update", "bench.newton"):
        assert name in seen["spans"]
    assert seen["fits"] == ["logistic/gq", "logistic/la", "logistic/qla"]
    # la's factor time lands under its own tag, so the per-layer metrics see it
    for name in ("factors.log_value", "factors.log_grad_hessdiag", "schemes.approximate",
                 "engine.gate_update", "gaussian.multiply", "gaussian.divide"):
        assert name in seen["la_spans"]
