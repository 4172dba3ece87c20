"""E10 — Corollary 6.6 (main result): same power, not equivalent.

Regenerated rows, both read off ``separation_report(n)`` for levels
n in {2, 3} (the computation ``repro separation`` and ``repro ledger``
render):

* power grid — for components k in {1, 2}: whether O_n and O'_n each
  solve k-set agreement among n_k processes (the report's certified
  cells, model-checked) — identical columns;
* separation — O_n solves (n+1)-DAC; every candidate reduction of
  (n+1)-DAC to O'_n's Lemma-6.4 base family fails.
"""

import functools

from repro.core.power_certification import certify_bundle_level
from repro.core.relations import separation_report
from repro.core.separation import make_on_prime

from _report import emit_rows


@functools.lru_cache(maxsize=None)
def _report(n):
    return separation_report(n)


def test_e10_power_grid_report(benchmark):
    benchmark.pedantic(_e10_power_grid_report, rounds=1, iterations=1)


def _e10_power_grid_report():
    rows = []
    for n in (2, 3):
        report = _report(n)
        for on_cell, on_prime_cell in zip(report.on_cells, report.on_prime_cells):
            rows.append(
                (
                    f"n={n}, k={on_cell.k} ({on_cell.process_count} procs)",
                    "✓" if on_cell.certified else "✗",
                    "✓" if on_prime_cell.certified else "✗",
                    "identical (same power, §6)",
                )
            )
            assert on_cell.process_count == on_prime_cell.process_count
            assert on_cell.certified == on_prime_cell.certified is True
    emit_rows(
        "E10a",
        "Power grid: O_n and O'_n solve the same (k, n_k) cells",
        ["cell", "O_n", "O'_n", "paper"],
        rows,
    )


def test_e10_separation_report(benchmark):
    benchmark.pedantic(_e10_separation_report, rounds=1, iterations=1)


def _e10_separation_report():
    rows = []
    for n in (2, 3):
        report = _report(n)
        total = len(report.candidates)
        refuted = total - len(report.survivors)
        rows.append(
            (
                f"level n={n}",
                "solves ✓" if report.on_solves_dac else "FAILS",
                f"{refuted}/{total} candidates refuted",
                "O_n ✓ / O'_n ✗ (Cor 6.6)",
            )
        )
        assert report.reproduces_corollary_6_6
    emit_rows(
        "E10b",
        "Separation: (n+1)-DAC splits the pair — O_n solves it, every "
        "candidate over O'_n's reduction family fails",
        ["level", "O_n side", "O'_n side", "paper"],
        rows,
    )


def test_e10_bench_grid_cell(benchmark):
    levels = make_on_prime(2, levels=2).levels
    result = benchmark(lambda: certify_bundle_level(levels, 2))
    assert result.certified
