"""The benchmark tracer's contract with the package.

`bench/tracing.py` wraps every layer module's public functions and the
methods it lists in `METHODS` by name, so removing or renaming one of those
in `src/` breaks the traced benchmark.  This test installs the tracer, in a
child interpreter because installing rebinds names in every module, and
fails when it cannot.
"""

import subprocess
import sys
from pathlib import Path

import runcons

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(runcons.__file__).resolve().parents[1]

INSTALL = """\
import sys
sys.path[:0] = sys.argv[1:]
from tracing import Tracer
Tracer().install()
"""


def test_benchmark_tracer_installs():
    result = subprocess.run([sys.executable, "-c", INSTALL, str(BENCH), str(SRC)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
