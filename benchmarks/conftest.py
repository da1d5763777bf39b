"""Pytest configuration for the benchmark harness.

Every bench (a) regenerates one table or figure of the paper, (b) asserts
the paper's qualitative *shape* (who wins, roughly by how much, where the
crossovers fall), (c) records the regeneration under pytest-benchmark
timing, and (d) writes the rendered panel to
``benchmarks/results/<name>.txt`` so the regenerated numbers survive the
run (pytest captures stdout of passing tests). Shared helpers live in
:mod:`bench_util`.

``bench_service.py`` is not collected: its ``bench_*`` functions are the
scenarios of a command-line gate driver, not pytest benches.
"""

from __future__ import annotations

import pathlib
import sys

collect_ignore = ["bench_service.py"]

# Make bench_util and the repository root (for tests.conftest) importable
# regardless of how pytest was invoked.
_here = pathlib.Path(__file__).parent
for path in (str(_here), str(_here.parent)):
    if path not in sys.path:
        sys.path.insert(0, path)
