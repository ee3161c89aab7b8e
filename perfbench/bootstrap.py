"""Process set-up shared by the benchmark's entry points.

Import this before numpy: it pins BLAS and OpenMP to one thread and puts
the checkout's ``src`` first on ``sys.path``, so the benchmark measures
the source tree it sits in and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class SourceTreeMissing(RuntimeError):
    pass


def use_source_tree() -> None:
    """Single-thread numerics and the checkout's own ccscatter sources."""
    os.environ.update(SINGLE_THREAD_ENV)
    os.environ.pop("CCSCATTER_JOBS", None)
    if not (SRC / "ccscatter" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no ccscatter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ccscatter

    if Path(ccscatter.__file__).resolve().parent != SRC / "ccscatter":
        raise SourceTreeMissing(f"ccscatter imported from {ccscatter.__file__}, not {SRC}")
