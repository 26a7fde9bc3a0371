"""Shared configuration for the benchmark suite.

Scaling: the paper ran on SQL Server with N=100, m=10000 (1M-tuple
relations). A pure-Python reproduction regenerates the *shapes* (who wins, by
what rough factor, where the phase transition sits) at a reduced scale so the
whole suite finishes in minutes. Set ``REPRO_BENCH_SCALE=full`` for a larger
run (tens of minutes).

Every figure module prints the series the paper plots; the output is also
written to ``.benchmarks/reports/<figure>.txt`` (git-ignored) so it survives
pytest's output capture without dirtying the tree. The committed
``benchmarks/reports/*.txt`` are reference copies of one earlier run.
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

#: Scale factors: (N, m) per figure family.
SCALES = {
    "small": {"fig5": (3, 500), "fig6": (2, 200), "fig7": (2, 100)},
    "full": {"fig5": (10, 2000), "fig6": (4, 400), "fig7": (4, 200)},
}


def scale() -> dict[str, tuple[int, int]]:
    """The active scale table."""
    return SCALES[os.environ.get("REPRO_BENCH_SCALE", "small")]


#: Where fresh runs write their tables (ignored by git).
REPORT_DIR = (
    pathlib.Path(__file__).resolve().parent.parent / ".benchmarks" / "reports"
)


def bench_report(name: str, text: str) -> None:
    """Print a benchmark table bypassing pytest capture, and persist it."""
    sys.__stdout__.write("\n" + text + "\n")
    sys.__stdout__.flush()
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def bench_scale():
    return scale()
