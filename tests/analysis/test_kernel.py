"""Unit tests for the packed-state exploration kernel.

Covers the three layers of :mod:`repro.analysis.kernel`:

* :class:`PackedEncoder` — structural integer encoding: allocation,
  side-effect-free peeking, first-seen decoding, overflow policy;
* backend selection — explicit argument beats ``REPRO_KERNEL`` beats
  ``auto``; requesting an absent compiled backend is a hard error;
* backend equivalence — every observable of the python and compiled
  backends (interning, rows, adjacency, targeted expansion, BFS with
  and without truncation, round events) is byte-identical. The
  compiled half skips gracefully when the extension is not built;
* the shared bounds contract — every available backend rejects an
  unknown configuration id with the same ``IndexError``.
"""

import pytest

from repro.analysis import kernel as kernel_mod
from repro.analysis.explorer import ABORTED, HALTED, RUNNING, Explorer
from repro.analysis.kernel import (
    KERNEL_CHOICES,
    MAX_CODE,
    PackedEncoder,
    PyKernel,
    compiled_available,
    make_backend,
    select,
)
from repro.core.pac import NPacSpec
from repro.errors import AnalysisError
from repro.protocols.dac_from_pac import algorithm2_processes

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
        assert encoder.slot_sizes() == ((2,), 1, (2,))

    def test_peek_never_allocates(self):
        encoder = PackedEncoder(1, 1, seed_statuses=(RUNNING,))
        assert encoder.peek(("a",), (RUNNING,), ("x",)) is None
        assert encoder.slot_sizes() == ((0,), 1, (0,))
        row = encoder.encode(("a",), (RUNNING,), ("x",))
        assert encoder.peek(("a",), (RUNNING,), ("x",)) == row
        assert encoder.peek(("a",), (RUNNING,), ("unseen",)) is None

    def test_overflow_raises(self):
        encoder = PackedEncoder(1, 0, seed_statuses=())
        # Simulate a full local slot instead of allocating 2**24 codes.
        encoder._local_values[0].extend(range(MAX_CODE))
        with pytest.raises(AnalysisError, match="overflow"):
            encoder.local_code(0, "one-too-many")


class TestKernelSelection:
    def test_choices(self):
        assert KERNEL_CHOICES == ("auto", "python", "compiled")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(AnalysisError, match="unknown kernel"):
            select("turbo")
        with pytest.raises(AnalysisError, match="unknown kernel"):
            Explorer({"PAC": NPacSpec(2)}, algorithm2_processes((1, 0)),
                     kernel="turbo")

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv(kernel_mod.ENV_VAR, "python")
        assert select("python") == "python"
        monkeypatch.setenv(kernel_mod.ENV_VAR, "bogus")
        # Explicit argument never consults the (invalid) environment.
        assert select("python") == "python"

    def test_env_and_auto(self, monkeypatch):
        monkeypatch.delenv(kernel_mod.ENV_VAR, raising=False)
        assert select(None) in ("python", "compiled")
        monkeypatch.setenv(kernel_mod.ENV_VAR, "python")
        assert select(None) == "python"

    def test_compiled_request_fails_loudly_when_absent(self, monkeypatch):
        monkeypatch.setattr(kernel_mod, "compiled_available", lambda: False)
        with pytest.raises(AnalysisError, match="not built"):
            select("compiled")
        # auto silently falls back instead.
        assert select("auto") == "python"

    def test_compiled_absent_error_includes_build_log(self, monkeypatch):
        """When a build was attempted and failed, the selection error
        carries both the remedy and the captured compiler output."""
        from repro.analysis.kernel import _build

        monkeypatch.setattr(kernel_mod, "compiled_available", lambda: False)
        monkeypatch.setattr(
            _build, "last_build_error", lambda: "compile failed (exit 1):\nboom"
        )
        with pytest.raises(AnalysisError) as excinfo:
            select("compiled")
        message = str(excinfo.value)
        assert "make kernel-ext" in message
        assert "last build attempt failed with" in message
        assert "boom" in message

        # No recorded failure: the remedy alone, no trailing noise.
        monkeypatch.setattr(_build, "last_build_error", lambda: None)
        with pytest.raises(AnalysisError) as excinfo:
            select("compiled")
        assert "last build attempt" not in str(excinfo.value)

    def test_make_backend_python(self):
        backend, name = make_backend(
            "python", 4, 1, lambda pid, local: 0, lambda *a: ()
        )
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
                result.to_portable(),
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
