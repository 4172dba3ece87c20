"""E13 — the consensus hierarchy tour (the paper's ambient structure).

Regenerated rows: the solvability grid object × process-count, read
off :func:`repro.core.hierarchy.builtin_catalog`'s probes —
constructive cells model-checked over all binary inputs, separation
cells refuted on the natural candidates. The figure-equivalent of
Herlihy's hierarchy table restricted to our catalog.
"""

from repro.core.hierarchy import REFUTED, SOLVES, builtin_catalog

from _report import emit_rows

#: Herlihy's hierarchy level of each catalog object (not probed).
LEVELS = {
    "2-consensus": "level 2",
    "3-consensus": "level 3",
    "test-and-set": "level 2",
    "compare-and-swap": "level ∞",
    "strong 2-SA": "level 1",
}

MARKS = {SOLVES: "✓", REFUTED: "✗"}


def grid():
    return [
        (name, *(MARKS.get(cell.grade, "?") for cell in probe.probe_range(3)))
        for name, probe in builtin_catalog(3).items()
    ]


def test_e13_report(benchmark):
    benchmark.pedantic(_e13_report, rounds=1, iterations=1)


def _e13_report():
    rows = [(name, c2, c3, LEVELS[name]) for name, c2, c3 in grid()]
    emit_rows(
        "E13",
        "Consensus hierarchy grid (✓ model-checked; ✗ candidate refuted; "
        "? unknown)",
        ["object", "consensus n=2", "consensus n=3", "hierarchy level"],
        rows,
    )
    # Sanity on the expected pattern:
    table = {name: (c2, c3) for name, c2, c3, _level in rows}
    assert table["2-consensus"] == ("✓", "✗")
    assert table["3-consensus"] == ("✓", "✓")
    assert table["test-and-set"] == ("✓", "✗")
    assert table["strong 2-SA"] == ("✗", "✗")
    assert table["compare-and-swap"] == ("✓", "✓")


def test_e13_bench_grid(benchmark):
    rows = benchmark(grid)
    assert len(rows) >= 5
