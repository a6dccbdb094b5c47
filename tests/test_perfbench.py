"""The benchmark harness still runs against the library.

perfbench/layertrace.py wraps library functions by module and name, so
a refactor that moves one of them breaks the traced benchmark; its
self-test catches that, and running it here makes the suite catch it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest ok" in proc.stdout
