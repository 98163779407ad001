"""Shared helpers for the benchmark suite.

Each ``bench_*`` module regenerates one table or figure of the paper (see
DESIGN.md §4 and EXPERIMENTS.md).  The pytest-benchmark fixture times one
full run of the corresponding experiment driver; the produced rows are also
rendered as a text table and written to ``benchmarks/results/`` (with any
``BENCH_*.json`` summary) so they can be inspected after the run; CI uploads
that directory as a build artifact.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where each benchmark writes its rendered result table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_table(results_dir):
    """Return a writer that renders rows to text, saves and echoes them."""
    from repro.bench.reporting import format_rows

    def _save(name: str, rows, columns=None, title=None) -> str:
        text = format_rows(rows, columns=columns, title=title)
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")
        return text

    return _save
