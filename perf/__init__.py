"""The repo's one benchmark: five XMark workloads measured end to end
(tracing off) and layer by layer (a separate traced run).

``python -m perf run`` runs everything; ``BENCHMARK.json`` at the repo
root is the contract a driver reads.  ``perf/README.md`` says why each
workload and metric is here and how to read the output.

The program under test lives in ``src/``; it is put on ``sys.path``
here so ``python -m perf`` needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERF_DIR = Path(__file__).resolve().parent
OUT_DIR = PERF_DIR / "out"
EXPECTED_DIR = PERF_DIR / "expected"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
