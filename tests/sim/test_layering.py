"""Layering: the simulation kernel does not load the tooling around it."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

_TOOLING = ("repro.analyze", "repro.obs.profile", "repro.obs.analytics")


def test_sim_import_loads_no_tooling():
    script = (
        "import sys, repro.sim\n"
        "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    loaded = subprocess.run([sys.executable, "-c", script], env=env,
                            check=True, capture_output=True,
                            text=True).stdout.split()
    assert "repro.sim.engine" in loaded
    tooling = [m for m in loaded
               if any(m == t or m.startswith(t + ".") for t in _TOOLING)]
    assert tooling == []
