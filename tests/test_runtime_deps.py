"""The runtime needs numpy only: scipy is a test-time dependency."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cvbell

SRC = str(Path(cvbell.__file__).resolve().parents[1])


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_loads_no_scipy():
    out = _run("""
        import sys
        import cvbell, cvbell.cli
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_verify_runs_with_scipy_unimportable():
    out = _run("""
        import sys

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError(f"{name} is blocked")
                return None

        sys.meta_path.insert(0, NoScipy())
        import cvbell.cli
        sys.exit(cvbell.cli.main(["verify", "--cutoff", "30"]))
    """)
    assert out.returncode == 0, out.stdout + out.stderr
    assert sum(line.startswith("[PASS]") for line in out.stdout.splitlines()) == 17
