"""Property-based tests (hypothesis) for the packed-state kernel.

Four families:

* **encode/decode round-trip** — for arbitrary hashable slot values,
  ``decode(encode(x)) == x`` and re-encoding is stable (codes are
  first-seen and never reassigned);
* **hash-seed independence** — the packed row of a configuration triple
  is a pure function of *insertion order*, never of ``hash()`` values,
  and so is the portable-graph digest on every available backend; both
  are re-checked in subprocesses under varied ``PYTHONHASHSEED`` (the
  R001 replayability contract extended down to the slot-code layer);
* **kernel equivalence** — for every registered protocol family (the
  doomed-candidate suite plus Algorithm 2 instances) and arbitrary
  exploration budgets, every available backend produces identical BFS
  orders, parents, round events, completeness verdicts, expansion
  counts, and portable-graph digests. With only the python backend
  built, this still pins that fresh explorers reproduce each other;
* **walk oracle** — on every available backend, ``run_bfs`` returns
  what the plain expand-then-scan walk of
  :func:`tests.oracles.reference_run_bfs` returns, and leaves the same
  rows and recorded adjacency behind, at every small budget and around
  the full size: on a fresh explorer, walking it again at the same
  budget, and once more at twice the budget.
  This needs no second backend.
"""

import hashlib
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.explorer import ABORTED, HALTED, RUNNING, Explorer
from repro.analysis.kernel import PackedEncoder, compiled_available
from repro.core.pac import NPacSpec
from repro.protocols.candidates import all_candidates
from repro.protocols.dac_from_pac import algorithm2_processes
from tests.oracles import reference_run_bfs
from tests.portable_graph import graph_digest, to_portable

AVAILABLE_KERNELS = ("python", "compiled") if compiled_available() else (
    "python",
)

SEED_STATUSES = (RUNNING, HALTED, ABORTED)

#: Hashable-but-varied slot values: ints, strings, nested tuples.
slot_values = st.recursive(
    st.integers(min_value=-5, max_value=5) | st.text(max_size=3),
    lambda inner: st.tuples(inner, inner),
    max_leaves=4,
)

statuses = st.sampled_from(SEED_STATUSES) | st.tuples(
    st.just("decided"), st.integers(min_value=0, max_value=3)
)


def configuration_triples(n_processes, n_objects, max_count=6):
    """Strategy: lists of (states, statuses, objects) triples for one
    fixed-shape encoder."""
    triple = st.tuples(
        st.tuples(*[slot_values] * n_processes),
        st.tuples(*[statuses] * n_processes),
        st.tuples(*[slot_values] * n_objects),
    )
    return st.lists(triple, min_size=1, max_size=max_count)


class TestEncodeDecodeRoundTrip:
    @given(configuration_triples(2, 2))
    @settings(max_examples=200, deadline=None)
    def test_decode_encode_identity(self, triples):
        encoder = PackedEncoder(2, 2, seed_statuses=SEED_STATUSES)
        for states, stats, objects in triples:
            row = encoder.encode(states, stats, objects)
            assert len(row) == encoder.n_fields
            decoded = encoder.decode(row)
            assert decoded == (tuple(states), tuple(stats), tuple(objects))

    @given(configuration_triples(3, 1))
    @settings(max_examples=200, deadline=None)
    def test_re_encoding_is_stable(self, triples):
        encoder = PackedEncoder(3, 1, seed_statuses=SEED_STATUSES)
        first = [encoder.encode(*triple) for triple in triples]
        again = [encoder.encode(*triple) for triple in triples]
        assert first == again
        # peek agrees with encode once every value is allocated.
        for triple, row in zip(triples, first):
            assert encoder.peek(*triple) == row

    @given(configuration_triples(2, 1))
    @settings(max_examples=100, deadline=None)
    def test_codes_depend_on_insertion_order_only(self, triples):
        """Two encoders fed the same sequence allocate identical rows —
        the in-process face of hash-seed independence."""
        one = PackedEncoder(2, 1, seed_statuses=SEED_STATUSES)
        two = PackedEncoder(2, 1, seed_statuses=SEED_STATUSES)
        assert [one.encode(*t) for t in triples] == [
            two.encode(*t) for t in triples
        ]


def interned_id_digest():
    """A digest over packed rows, interned ids, and BFS order for one
    Algorithm 2 instance — any hash-order dependence changes it."""
    explorer = Explorer(
        {"PAC": NPacSpec(3)}, algorithm2_processes((1, 0, 0))
    )
    result = explorer.explore()
    backend = explorer._backend
    hasher = hashlib.sha256()
    for cid in result.order_ids:
        hasher.update(repr((cid, backend.row(cid))).encode())
    hasher.update(repr(result.parent_ids).encode())
    return hasher.hexdigest()


def graph_digests():
    """Portable-graph digest of one Algorithm 2 exploration per
    available backend — run in subprocesses under varied
    ``PYTHONHASHSEED`` below."""
    return {
        kernel: graph_digest(
            to_portable(
                Explorer(
                    {"PAC": NPacSpec(3)},
                    algorithm2_processes((1, 0, 0)),
                    kernel=kernel,
                ).explore()
            )
        )
        for kernel in AVAILABLE_KERNELS
    }


def _under_hash_seeds(function_name):
    """``function_name()``'s printed result in subprocesses under two
    ``PYTHONHASHSEED`` values, as a set of output lines."""
    here = os.path.abspath(__file__)
    program = (
        "import runpy; "
        f"module = runpy.run_path({here!r}); "
        f"print(module[{function_name!r}]())"
    )
    outputs = set()
    for seed in ("0", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), *sys.path) if p
        )
        outputs.add(
            subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout.strip()
        )
    return outputs


class TestHashSeedIndependence:
    def test_interned_ids_stable_across_hash_seeds(self):
        digests = _under_hash_seeds("interned_id_digest")
        assert len(digests) == 1, "interned ids drift with PYTHONHASHSEED"
        assert interned_id_digest() in digests


def _families():
    """Every registered protocol family as (name, objects, processes)."""
    families = [
        (f"candidate-{index}", candidate.objects, candidate.processes)
        for index, candidate in enumerate(all_candidates())
    ]
    for inputs in ((1, 0), (1, 0, 0)):
        families.append(
            (
                f"algorithm2-n{len(inputs)}",
                {"PAC": NPacSpec(len(inputs))},
                algorithm2_processes(inputs),
            )
        )
    return families


FAMILIES = _families()


def _observe(objects, processes, kernel, budget):
    """Everything a caller can see from one exploration."""
    explorer = Explorer(objects, processes, kernel=kernel)
    start_id = explorer.intern_id(explorer.initial_configuration())
    result = explorer.explore(max_configurations=budget)
    rounds = []
    order, parents, complete, expansions, bfs_rounds = (
        explorer._backend.run_bfs(
            start_id,
            budget,
            lambda depth, width, seen: rounds.append((depth, width, seen)),
        )
    )
    return {
        "order": list(result.order_ids),
        "parents": {
            tid: (cid, (edge.pid, edge.choice, edge.response))
            for tid, (cid, edge) in result.parent_ids.items()
        },
        "raw": (list(order), list(parents), complete, expansions, bfs_rounds),
        "rounds": rounds,
        "complete": result.complete,
        "expansions": result.expansions,
        "digest": graph_digest(to_portable(result)),
    }


class TestKernelEquivalence:
    @given(
        st.integers(min_value=0, max_value=len(FAMILIES) - 1),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_backends_match_at_any_budget(self, index, budget):
        name, objects, processes = FAMILIES[index]
        reference = _observe(objects, processes, "python", budget)
        for kernel in AVAILABLE_KERNELS:
            observed = _observe(objects, processes, kernel, budget)
            assert observed == reference, (
                f"{name}: kernel={kernel} diverged at budget={budget}"
            )

    @pytest.mark.parametrize("index", range(len(FAMILIES)))
    def test_exhaustive_digest_per_family(self, index):
        """Full exploration of every family: the backend cannot move
        the portable digest."""
        _, objects, processes = FAMILIES[index]
        digests = {
            _observe(objects, processes, kernel, 100_000)["digest"]
            for kernel in AVAILABLE_KERNELS
        }
        assert len(digests) == 1

    def test_digest_stable_across_hash_seeds(self):
        """The portable digest agrees across backends and across
        ``PYTHONHASHSEED`` values."""
        outputs = _under_hash_seeds("graph_digests")
        assert len(outputs) == 1, "graph digests drift with PYTHONHASHSEED"
        digests = graph_digests()
        assert repr(digests) in outputs
        assert len(set(digests.values())) == 1, digests


#: The walk oracle's instances: every family, and Algorithm 2 up to n=5.
ORACLE_FAMILIES = FAMILIES + [
    (
        f"algorithm2-n{n}",
        {"PAC": NPacSpec(n)},
        algorithm2_processes(tuple([1] + [0] * (n - 1))),
    )
    for n in (4, 5)
]


def _walk_thrice(objects, processes, kernel, budget, walk):
    """What ``walk`` returns and leaves in the kernel: walking a fresh
    explorer's graph, walking it again, then walking at twice the
    budget from the last configuration the first walk discovered. The
    last walk meets ids interned before it that it has not yet seen."""
    explorer = Explorer(objects, processes, kernel=kernel)
    backend = explorer._backend
    start_id = explorer.intern_id(explorer.initial_configuration())
    walks = []
    for walk_budget in (budget, budget, 2 * budget):
        rounds = []
        returned = walk(
            backend,
            start_id,
            walk_budget,
            lambda depth, width, seen: rounds.append((depth, width, seen)),
        )
        order, parents, complete, expansions, bfs_rounds = returned
        size = len(backend)
        walks.append(
            {
                "returned": (
                    list(order),
                    list(parents),
                    bool(complete),
                    expansions,
                    bfs_rounds,
                ),
                "round_events": rounds,
                "size": size,
                "rows": [backend.row(cid) for cid in range(size)],
                "adjacency": [backend.adjacency(cid) for cid in range(size)],
            }
        )
        if len(walks) == 2:
            start_id = walks[0]["returned"][0][-1]
    return walks


def _backend_walk(backend, start_id, budget, on_round):
    return backend.run_bfs(start_id, budget, on_round)


class TestWalkOracle:
    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    @pytest.mark.parametrize(
        "index",
        range(len(ORACLE_FAMILIES)),
        ids=[name for name, _, _ in ORACLE_FAMILIES],
    )
    def test_run_bfs_matches_expand_then_scan(self, index, kernel):
        _, objects, processes = ORACLE_FAMILIES[index]
        full = len(
            _walk_thrice(
                objects, processes, kernel, 1 << 30, _backend_walk
            )[0]["returned"][0]
        )
        budgets = sorted({*range(1, 151), full - 1, full, full + 1})
        for budget in budgets:
            expected = _walk_thrice(
                objects, processes, kernel, budget, reference_run_bfs
            )
            observed = _walk_thrice(
                objects, processes, kernel, budget, _backend_walk
            )
            assert observed == expected, f"budget={budget}"
