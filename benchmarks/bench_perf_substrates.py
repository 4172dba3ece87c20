"""Performance benches for the heavier substrates.

Complements ``bench_perf_core.py``: the Afek snapshot implementation,
obstruction-free consensus exploration, the valency analyzer's fixpoint,
symmetry-reduced exploration, and the paper-ledger assembly. The
headline benches record machine-readable entries into
``BENCH_perf.json`` via :mod:`benchmarks._perf_report`
(``REPRO_PERF_SCALE=tiny`` shrinks them for the CI smoke job).
"""

import multiprocessing

import pytest

from _perf_report import perf_scale, record, timed
from repro.analysis.explorer import Explorer
from repro.analysis.kernel import compiled_available
from repro.analysis.valency_analyzer import ValencyAnalyzer
from repro.core.pac import NPacSpec
from repro.core.relations import paper_ledger
from repro.protocols.dac_from_pac import algorithm2_processes, algorithm2_symmetry
from repro.protocols.implementation import check_implementation
from repro.protocols.obstruction_free import (
    adopt_commit_round_objects,
    obstruction_free_processes,
)
from repro.protocols.snapshot import AfekSnapshotImplementation
from repro.protocols.tasks import DacDecisionTask
from repro.runtime.scheduler import SeededScheduler
from repro.workloads.generators import snapshot_workloads


class TestSnapshotPerf:
    def test_bench_snapshot_check(self, benchmark):
        workloads = snapshot_workloads(3, 3, seed=1)

        def run():
            impl = AfekSnapshotImplementation(3)
            verdict, _result = check_implementation(
                impl, workloads, scheduler=SeededScheduler(2)
            )
            return verdict

        verdict = benchmark(run)
        assert verdict.ok


class TestObstructionFreePerf:
    def test_bench_of_exploration(self, benchmark):
        rounds = 1 if perf_scale() == "tiny" else 2

        def run():
            explorer = Explorer(
                adopt_commit_round_objects(2, rounds),
                obstruction_free_processes((0, 1), max_rounds=rounds),
            )
            return explorer.explore(max_configurations=400_000)

        timing = timed(run, repeats=3)
        graph = timing.result
        record(
            "obstruction_free_exploration",
            rounds=rounds,
            configurations=len(graph),
            wall_seconds=timing.median,
            best_wall_seconds=timing.best,
            repeats=timing.repeats,
            configs_per_sec=len(graph) / timing.median,
        )
        graph = benchmark(run)
        assert graph.complete


class TestValencyAnalyzerPerf:
    def test_bench_fixpoint(self, benchmark):
        explorer = Explorer(
            {"PAC": NPacSpec(3)}, algorithm2_processes((1, 0, 0))
        )

        def run():
            return ValencyAnalyzer(explorer)

        timing = timed(run)
        analyzer = timing.result
        record(
            "valency_analyzer_fixpoint",
            n=3,
            configurations=len(analyzer.graph),
            wall_seconds=timing.median,
            best_wall_seconds=timing.best,
            repeats=timing.repeats,
        )
        analyzer = benchmark(run)
        assert analyzer.summary()


class TestSymmetryReductionPerf:
    def test_bench_symmetry_reduction(self, benchmark):
        # What the quotient construction buys on the E18 state-space
        # instances: full vs reduced graph size and cold wall time (a
        # fresh explorer and symmetry per run, so no table survives
        # from one run to the next), per available backend, plus the
        # guarantee that the quotient preserves the decision set.
        sizes = (3,) if perf_scale() == "tiny" else (4, 5, 6)
        backends = ["python"]
        if compiled_available():
            backends.append("compiled")
        repeats = 5
        fields = {
            "repeats": repeats,
            "sizes": list(sizes),
            "backends": list(backends),
            "cpu_count": multiprocessing.cpu_count(),
        }
        decisions_equal = True
        for n in sizes:
            inputs = DacDecisionTask.paper_initial_inputs(n)

            def run(kernel, reduce):
                explorer = Explorer(
                    {"PAC": NPacSpec(n)},
                    algorithm2_processes(inputs),
                    kernel=kernel,
                )
                symmetry = algorithm2_symmetry(inputs) if reduce else None
                assert not reduce or symmetry is not None
                return explorer, explorer.explore(symmetry=symmetry)

            fields[f"n{n}_inputs"] = list(inputs)
            for kernel in backends:
                full_timing = timed(lambda: run(kernel, False), repeats)
                reduced_timing = timed(lambda: run(kernel, True), repeats)
                full_explorer, full = full_timing.result
                reduced_explorer, reduced = reduced_timing.result
                assert len(reduced) < len(full)
                full_decisions = full_explorer.decision_table(
                    exploration=full
                )[full.order_ids[0]]
                reduced_decisions = reduced_explorer.decision_table(
                    exploration=reduced
                )[reduced.order_ids[0]]
                decisions_equal &= full_decisions == reduced_decisions
                prefix = f"n{n}_{kernel}"
                fields.update(
                    {
                        f"n{n}_full_configurations": len(full),
                        f"n{n}_reduced_configurations": len(reduced),
                        f"{prefix}_full_wall_seconds": full_timing.median,
                        f"{prefix}_full_best_wall_seconds": full_timing.best,
                        f"{prefix}_reduced_wall_seconds": (
                            reduced_timing.median
                        ),
                        f"{prefix}_reduced_best_wall_seconds": (
                            reduced_timing.best
                        ),
                        f"{prefix}_reduced_over_full": (
                            reduced_timing.median / full_timing.median
                        ),
                    }
                )
        record(
            "symmetry_reduction_algorithm2",
            decision_sets_equal=decisions_equal,
            **fields,
        )
        assert decisions_equal

        n = sizes[0]
        inputs = DacDecisionTask.paper_initial_inputs(n)

        def run_reduced():
            explorer = Explorer(
                {"PAC": NPacSpec(n)}, algorithm2_processes(inputs)
            )
            return explorer.explore(symmetry=algorithm2_symmetry(inputs))

        assert benchmark(run_reduced).complete


class TestLedgerPerf:
    def test_bench_paper_ledger(self, benchmark):
        ledger = benchmark(lambda: paper_ledger(2, seeds=1))
        assert ledger.check_consistency() == []
