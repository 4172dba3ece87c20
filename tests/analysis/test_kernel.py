"""Unit tests for the packed-state exploration kernel.

Covers the three layers of :mod:`repro.analysis.kernel`:

* :class:`PackedEncoder` — structural integer encoding: allocation,
  side-effect-free peeking, first-seen decoding, overflow policy;
* backend selection — the build picks (compiled iff the extension
  imports); forcing an absent compiled backend is a hard error;
* backend equivalence — every observable of the python and compiled
  backends (interning, rows, adjacency, targeted expansion, BFS with
  and without truncation, round events) is byte-identical. The
  compiled half skips gracefully when the extension is not built;
* the shared bounds contract — every available backend rejects an
  unknown configuration id with the same ``IndexError``;
* miss-hook errors — a hook that raises mid-walk surfaces its error
  unchanged, on the first walk and on every later one;
* graph lifetime — an explorer, its kernel and its code tables form no
  reference cycle, so dropping the explorer frees them at once, an
  exploration result that outlives its explorer still answers kernel
  misses, and no request leaves memory behind once it returns.
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro
from repro.analysis import kernel as kernel_mod
from repro.analysis.explorer import ABORTED, HALTED, RUNNING, Explorer
from repro.analysis.kernel import (
    PackedEncoder,
    compiled_available,
    make_backend,
    select,
)
from repro.analysis.kernel._pycore import PyKernel
from repro.analysis.kernel.encoding import MAX_CODE
from repro.core.pac import NPacSpec
from repro.errors import AnalysisError
from repro.objects.register import RegisterSpec
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.runtime.events import Invoke
from repro.types import op
from tests.oracles import FunctionalAutomaton
from tests.portable_graph import to_portable

needs_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel extension not built (run `make kernel-ext`)",
)

AVAILABLE_KERNELS = ("python", "compiled") if compiled_available() else (
    "python",
)


def _algorithm2_protocol(n):
    inputs = tuple([1] + [0] * (n - 1))
    return {"PAC": NPacSpec(n)}, algorithm2_processes(inputs)


def _algorithm2_explorer(n, kernel=None):
    objects, processes = _algorithm2_protocol(n)
    return Explorer(objects, processes, kernel=kernel)


def _slot_sizes(encoder):
    """(per-pid local count, status count, per-object state count)."""
    return (
        tuple(len(values) for values in encoder._local_values),
        len(encoder._status_values),
        tuple(len(codec._values) for codec in encoder.codecs),
    )


class TestPackedEncoder:
    def test_row_layout_and_roundtrip(self):
        encoder = PackedEncoder(
            2, 1, seed_statuses=(RUNNING, HALTED, ABORTED)
        )
        states = ("s0", "s1")
        statuses = (RUNNING, ("decided", 7))
        objects = ({"x": 1},)
        row = encoder.encode(states, statuses, [("obj", 0)])
        assert len(row) == encoder.n_fields == 2 * 2 + 1
        # Slot order: locals, then statuses, then objects.
        assert row[2] == 0  # RUNNING is pre-seeded as status code 0
        decoded = encoder.decode(row)
        assert decoded[0] == states
        assert decoded[1] == (RUNNING, ("decided", 7))
        # Statuses decode to the *seeded singleton*, identity included.
        assert decoded[1][0] is RUNNING

    def test_codes_are_first_seen_and_stable(self):
        encoder = PackedEncoder(1, 1, seed_statuses=(RUNNING,))
        first = encoder.encode(("a",), (RUNNING,), ("x",))
        second = encoder.encode(("b",), (RUNNING,), ("y",))
        again = encoder.encode(("a",), (RUNNING,), ("x",))
        assert first == again
        assert second[0] == first[0] + 1
        assert _slot_sizes(encoder) == ((2,), 1, (2,))

    def test_peek_never_allocates(self):
        encoder = PackedEncoder(1, 1, seed_statuses=(RUNNING,))
        assert encoder.peek(("a",), (RUNNING,), ("x",)) is None
        assert _slot_sizes(encoder) == ((0,), 1, (0,))
        row = encoder.encode(("a",), (RUNNING,), ("x",))
        assert encoder.peek(("a",), (RUNNING,), ("x",)) == row
        assert encoder.peek(("a",), (RUNNING,), ("unseen",)) is None

    def test_overflow_raises(self):
        encoder = PackedEncoder(1, 0, seed_statuses=())
        # Simulate a full local slot instead of allocating 2**24 codes.
        encoder._local_values[0].extend(range(MAX_CODE))
        with pytest.raises(AnalysisError, match="overflow"):
            encoder.local_code(0, "one-too-many")


def _force(kernel):
    return make_backend(kernel, 4, 1, lambda pid, local: 0, lambda *a: ())


class TestKernelSelection:
    def test_select_is_build_detected(self):
        expected = "compiled" if compiled_available() else "python"
        assert select() == expected
        assert _algorithm2_explorer(2).kernel == expected

    def test_unknown_kernel_rejected(self):
        with pytest.raises(AnalysisError, match="unknown kernel"):
            _force("turbo")
        with pytest.raises(AnalysisError, match="unknown kernel"):
            Explorer({"PAC": NPacSpec(2)}, algorithm2_processes((1, 0)),
                     kernel="turbo")

    def test_compiled_request_fails_loudly_when_absent(self, monkeypatch):
        monkeypatch.setattr(kernel_mod, "compiled_available", lambda: False)
        with pytest.raises(AnalysisError, match="not built"):
            _force("compiled")
        # Detection silently picks python instead.
        assert select() == "python"

    def test_compiled_absent_error_includes_build_log(self, monkeypatch):
        """When a build was attempted and failed, the selection error
        carries both the remedy and the captured compiler output."""
        from repro.analysis.kernel import _build

        monkeypatch.setattr(kernel_mod, "compiled_available", lambda: False)
        monkeypatch.setattr(
            _build, "last_build_error", lambda: "compile failed (exit 1):\nboom"
        )
        with pytest.raises(AnalysisError) as excinfo:
            _force("compiled")
        message = str(excinfo.value)
        assert "make kernel-ext" in message
        assert "last build attempt failed with" in message
        assert "boom" in message

        # No recorded failure: the remedy alone, no trailing noise.
        monkeypatch.setattr(_build, "last_build_error", lambda: None)
        with pytest.raises(AnalysisError) as excinfo:
            _force("compiled")
        assert "last build attempt" not in str(excinfo.value)

    def test_make_backend_python(self):
        backend, name = _force("python")
        assert name == "python"
        assert isinstance(backend, PyKernel)


class TestPyKernelContract:
    """Backend API behaviors both implementations must satisfy,
    checked against the always-available python backend."""

    def test_intern_find_row(self):
        explorer = _algorithm2_explorer(2, kernel="python")
        backend = explorer._backend
        initial = explorer.initial_configuration()
        cid = explorer.intern_id(initial)
        row = backend.row(cid)
        assert backend.find_row(list(row)) == cid
        assert backend.intern_row(list(row)) == cid
        unseen = [code + 1 for code in row]
        assert backend.find_row(unseen) is None

    def test_expand_pid_does_not_record_adjacency(self):
        explorer = _algorithm2_explorer(2, kernel="python")
        backend = explorer._backend
        cid = explorer.intern_id(explorer.initial_configuration())
        entries = backend.expand_pid(cid, 0)
        assert entries  # pid 0 is running initially
        assert backend.adjacency(cid) is None
        full = backend.expand(cid)
        assert backend.adjacency(cid) == full

    def test_status_key_zero_means_running(self):
        explorer = _algorithm2_explorer(2, kernel="python")
        cid = explorer.intern_id(explorer.initial_configuration())
        assert explorer._backend.status_key(cid) == (0, 0)


def _bfs_observables(kernel, n=3, max_configurations=200_000):
    """Everything run_bfs and the row tables expose, for one backend."""
    explorer = _algorithm2_explorer(n, kernel=kernel)
    rounds = []
    start = explorer.intern_id(explorer.initial_configuration())
    backend = explorer._backend
    order, parents, complete, expansions, bfs_rounds = backend.run_bfs(
        start,
        max_configurations,
        lambda depth, width, seen: rounds.append((depth, width, seen)),
    )
    rows = [backend.row(cid) for cid in order]
    status_keys = [backend.status_key(cid) for cid in order]
    adjacency = [backend.adjacency(cid) for cid in order]
    return {
        "order": list(order),
        "parents": list(parents),
        "complete": bool(complete),
        "expansions": expansions,
        "rounds": bfs_rounds,
        "round_events": rounds,
        "rows": rows,
        "status_keys": status_keys,
        "adjacency": adjacency,
        "size": len(backend),
    }


@needs_compiled
class TestBackendEquivalence:
    def test_full_bfs_identical(self):
        assert _bfs_observables("python") == _bfs_observables("compiled")

    @pytest.mark.parametrize("budget", [1, 2, 5, 23, 78])
    def test_truncated_bfs_identical(self, budget):
        py = _bfs_observables("python", max_configurations=budget)
        cc = _bfs_observables("compiled", max_configurations=budget)
        assert py == cc
        assert len(py["order"]) <= budget

    def test_exploration_results_identical(self):
        results = {}
        for kernel in ("python", "compiled"):
            explorer = _algorithm2_explorer(3, kernel=kernel)
            assert explorer.kernel == kernel
            result = explorer.explore()
            results[kernel] = (
                result.order_ids,
                result.parent_ids,
                dict(result.successor_ids),
                list(result.successor_ids),
                result.expansions,
                result.complete,
                to_portable(result),
            )
        assert results["python"] == results["compiled"]

    def test_step_and_successors_identical(self):
        pex = _algorithm2_explorer(2, kernel="python")
        cex = _algorithm2_explorer(2, kernel="compiled")
        pinit = pex.initial_configuration()
        cinit = cex.initial_configuration()
        assert pinit == cinit
        assert pex.step(pinit, 0, 0) == cex.step(cinit, 0, 0)
        psucc = pex.successors(pinit)
        csucc = cex.successors(cinit)
        assert [(edge, config) for edge, config in psucc] == [
            (edge, config) for edge, config in csucc
        ]


class TestUnknownConfigurationId:
    """Every public cid-taking method rejects an id the backend never
    interned with the same ``IndexError``, on every available backend —
    never a silent walk from some other row."""

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    @pytest.mark.parametrize("where", ["negative", "past_end"])
    def test_unknown_cid_raises_index_error(self, kernel, where):
        explorer = _algorithm2_explorer(2, kernel=kernel)
        backend = explorer._backend
        explorer.intern_id(explorer.initial_configuration())
        size = len(backend)
        cid = -1 if where == "negative" else size
        calls = {
            "row": lambda: backend.row(cid),
            "expand": lambda: backend.expand(cid),
            "adjacency": lambda: backend.adjacency(cid),
            "expand_pid": lambda: backend.expand_pid(cid, 0),
            "status_key": lambda: backend.status_key(cid),
            "run_bfs": lambda: backend.run_bfs(cid, 10),
        }
        for name, call in calls.items():
            with pytest.raises(
                IndexError, match=f"^unknown configuration id {cid}$"
            ):
                call()
                pytest.fail(f"{name}({cid}) did not raise")
        assert len(backend) == size  # nothing interned on the way

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    def test_unknown_pid_raises_index_error(self, kernel):
        explorer = _algorithm2_explorer(2, kernel=kernel)
        cid = explorer.intern_id(explorer.initial_configuration())
        for pid in (-1, 2):
            with pytest.raises(IndexError, match=f"^unknown pid {pid}$"):
                explorer._backend.expand_pid(cid, pid)


class TestMissHookError:
    """A miss hook that raises mid-walk: the error leaves ``run_bfs``
    as is, and the kernel stays consistent enough to raise it again."""

    @staticmethod
    def _writer(pid):
        # Writes the register twice, then invokes an undeclared object.
        def next_action(k):
            if k < 2:
                return Invoke("R", op("write", pid))
            return Invoke("NOPE", op("read"))

        return FunctionalAutomaton(pid, 0, next_action, lambda k, _r: k + 1)

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    def test_unknown_object_raises_on_every_walk(self, kernel):
        explorer = Explorer(
            {"R": RegisterSpec()},
            [self._writer(0), self._writer(1)],
            kernel=kernel,
        )
        message = "process 0 invoked unknown object 'NOPE'"
        with pytest.raises(AnalysisError) as first:
            explorer.explore()
        assert str(first.value) == message
        assert len(explorer._intern) == 7
        with pytest.raises(AnalysisError) as second:
            explorer.explore()
        assert str(second.value) == message
        assert len(explorer._intern) == 7


def _live(kind):
    """How many ``kind`` instances the collector tracks right now."""
    return sum(1 for obj in gc.get_objects() if type(obj) is kind)


#: The most a request may leave traced once it returned and the
#: collector ran: tracemalloc's own bookkeeping, never a table.
RETAINED_LIMIT = 64 * 1024

#: Runs each request once after a warm-up, in a fresh interpreter with
#: the backend forced, and prints the bytes still traced after each as
#: one JSON object. A fresh process has seen no instance the explore
#: and verify requests model-check, so a response memo that outlives
#: its request would show in full.
_RETAINED_PROBE = """
import gc, json, sys, tracemalloc
from repro.api import (
    ExploreRequest, FuzzRequest, RefuteRequest, VerifyRequest, execute
)
from repro.analysis import kernel as kernel_mod
from repro.analysis.explorer import Explorer

kernel_mod.select = lambda: sys.argv[1]
built = set()
init = Explorer.__init__

def recording(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.add(self.kernel)

Explorer.__init__ = recording
# Warm-up: lazy imports and one-off set-up, on other instances.
for warm_up in (
    ExploreRequest(n=4, inputs=(0, 1, 1, 0)),
    ExploreRequest(n=4, inputs=(0, 1, 1, 0), symmetry=True),
    VerifyRequest(n=3),
    VerifyRequest(n=3, symmetry=True),
    RefuteRequest(candidate="2-consensus from one 2-SA"),
    FuzzRequest(candidate="one 2-SA", seed=1, budget=20),
):
    execute(warm_up)
requests = {
    "explore": ExploreRequest(n=5, inputs=(1, 0, 1, 1, 0)),
    "explore-reduced": ExploreRequest(
        n=5, inputs=(0, 1, 1, 1, 0), symmetry=True
    ),
    "verify": VerifyRequest(n=4),
    "verify-reduced": VerifyRequest(n=4, symmetry=True),
    "refute": RefuteRequest(),
    "fuzz": FuzzRequest(candidate="one 2-SA", seed=7, budget=50),
}
retained = {}
for name, request in requests.items():
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    assert execute(request).ok, name
    gc.collect()
    retained[name] = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
json.dump({"retained": retained, "built": sorted(built)}, sys.stdout)
"""


class TestGraphLifetime:
    """Reference counting alone frees an explorer and its kernel: the
    kernel's miss hooks belong to the explorer's code space, which
    references neither of them (docs/performance.md, "Graph lifetime")."""

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    def test_dropped_explorer_leaves_nothing_for_the_collector(self, kernel):
        gc.collect()
        gc.disable()
        try:
            explorer = _algorithm2_explorer(5, kernel=kernel)
            backend_type = type(explorer._backend)
            live_before = _live(backend_type) - 1
            result = explorer.explore()
            assert result.complete and len(result) > 900
            ref = weakref.ref(explorer)
            del explorer, result
            assert ref() is None
            assert _live(backend_type) == live_before
            assert gc.collect() == 0
        finally:
            gc.enable()

    @staticmethod
    def _frontier_answers(kernel, keep):
        """Successors and schedules of a truncated walk's never-expanded
        frontier, asked after the explorer is dropped (``keep=False``)
        or while it is still alive."""
        explorer = _algorithm2_explorer(4, kernel=kernel)
        result = explorer.explore(max_configurations=37)
        assert not result.complete
        if not keep:
            ref = weakref.ref(explorer)
            del explorer
            gc.collect()
            assert ref() is None
        interned = len(result.intern)
        value = result.intern.value
        resolve = result._edge_resolver
        answers = []
        for cid in result.order_ids[result.expansions:]:
            config = value(cid)
            # The adjacency of an unexpanded id is computed on demand:
            # kernel misses call the code space's hooks.
            flat = list(result._adjacency(cid))
            successors = [
                (resolve(flat[k]), flat[k + 1], value(flat[k + 1]))
                for k in range(0, len(flat), 2)
            ]
            answers.append(
                (cid, config, successors, result.schedule_to(config))
            )
        # The questions did reach past the walk into new configurations.
        assert len(result.intern) > interned
        return answers

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    def test_result_outlives_its_explorer(self, kernel):
        kept = self._frontier_answers(kernel, keep=True)
        dropped = self._frontier_answers(kernel, keep=False)
        assert kept
        assert dropped == kept

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    def test_nothing_outlives_a_request(self, kernel):
        """Every table a request fills belongs to one of its explorers,
        so tracemalloc sees nothing held once the request returns —
        including no process-wide memo of object transitions."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", _RETAINED_PROBE, kernel],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        probe = json.loads(result.stdout)
        assert probe["built"] == [kernel]
        assert sorted(probe["retained"]) == [
            "explore",
            "explore-reduced",
            "fuzz",
            "refute",
            "verify",
            "verify-reduced",
        ]
        held = {
            name: size
            for name, size in probe["retained"].items()
            if size > RETAINED_LIMIT
        }
        assert not held, f"bytes still traced after the request: {held}"
