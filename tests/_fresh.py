"""The repository's paths, and a fresh interpreter for the tests that
must see what a command imports or leaves behind from a clean start."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def fresh(code: str) -> str:
    """The stdout of ``code`` run as ``python -S -c``, with ``src`` and
    then ``perfbench`` first on ``sys.path``.  Without ``site`` no module
    the host preloads can hide an import.  A nonzero exit raises
    ``CalledProcessError``."""
    path = [str(SRC), str(ROOT / "perfbench")]
    return subprocess.run(
        [sys.executable, "-S", "-c", f"import sys\nsys.path[:0] = {path!r}\n"
         + code], capture_output=True, text=True, check=True).stdout
