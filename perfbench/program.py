"""Import the strategem package from the checkout this benchmark sits in.

The benchmark builds nothing: it runs the sources under `<checkout>/src`.
`load()` pins the numeric libraries to one thread before numpy is first
imported, so the two pool workers do not oversubscribe a small host.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout holds no strategem sources to benchmark."""


def pin_threads() -> None:
    for name in THREAD_VARS:
        os.environ[name] = "1"


def load():
    """Return the checkout's strategem package, refusing any other copy."""
    pin_threads()
    if not (SRC / "strategem" / "__init__.py").is_file():
        raise ProgramMissing(f"no strategem sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import strategem
    import strategem.cli  # also binds strategem.config

    if Path(strategem.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"strategem was imported from {strategem.__file__}, not {SRC}")
    return strategem
