"""What a fresh `runcons` process loads before it does any work.

Importing scipy costs a `runcons` process about 0.2 s and 20 MB at every
start: even `scipy.special` pulls in its array-API layer and `numpy.f2py`,
and `scipy.integrate` drags in `scipy.optimize`, `scipy.sparse` and
`scipy.linalg` besides.  The package integrates with its own Gauss-Kronrod
rule and takes the Gaussian tail from the standard library, so it needs
numpy alone; these tests keep scipy, or any other third-party import, from
coming back.  The tests themselves still use scipy as an oracle.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import runcons

PACKAGE = Path(runcons.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_cli_import_loads_no_scipy_module():
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, runcons.cli; print('\\n'.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "runcons.cli" in loaded
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []


def test_package_imports_only_the_standard_library_and_numpy():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert foreign == []
