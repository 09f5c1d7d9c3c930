import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    # the tracer wraps functions at the names modules bind them to, so a
    # refactor that drops such a binding fails here, not only in the
    # benchmark; -W error: a warning the self-test raises fails it too
    result = subprocess.run(
        [sys.executable, "-W", "error", str(SELFTEST)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
