"""What a fresh `runcons` process loads before it does any work.

Importing `scipy.integrate` drags in `scipy.optimize`, `scipy.sparse` and
`scipy.linalg`, several tenths of a second and tens of MB at every start.
The package integrates with its own Gauss-Kronrod rule and needs only
`scipy.special`; this test keeps the heavy subpackages from coming back
through some new import.
"""

import os
import subprocess
import sys
from pathlib import Path

import runcons

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse")


def test_cli_import_loads_no_heavy_scipy_subpackage():
    src = str(Path(runcons.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, runcons.cli; print('\\n'.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "runcons.cli" in loaded
    heavy = [name for name in loaded if ".".join(name.split(".")[:2]) in HEAVY]
    assert heavy == []
