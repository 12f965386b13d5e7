"""The demos run: each read-only script exits 0 in a fresh interpreter.

``make_synthetic_dataset.py`` is left out: it rewrites the packaged
``synthetic306.csv`` in place, which a test must not do to the checkout.
The README's "Behavior notes" are generated from ``ep_on_synthetic.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = ("gaussian_messages.py", "loss_landscape.py", "scheme_gallery.py",
         "ep_on_synthetic.py")


def test_every_demo_but_the_dataset_writer_is_covered():
    scripts = {p.name for p in (REPO / "demos").glob("*.py")}
    assert scripts - set(DEMOS) == {"make_synthetic_dataset.py"}


@pytest.mark.parametrize("script", DEMOS)
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
