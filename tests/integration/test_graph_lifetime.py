"""Every explored graph is freed when its request returns.

The engine's object graph is acyclic — explorer -> kernel -> code
tables, nothing pointing back — so reference counting frees each
:class:`~repro.analysis.explorer.Explorer` and its kernel the moment a
request drops them, with no help from the cycle collector. These tests
run every command of :func:`repro.api.execute` with the collector off
and check that nothing the request built is still alive afterwards, on
every available backend.

The compiled ``KernelState`` takes no weak references, so kernels are
counted among the objects the collector tracks instead.
"""

import gc
import weakref

import pytest

from repro.api import (
    ExploreRequest,
    FuzzRequest,
    RefuteRequest,
    VerifyRequest,
    execute,
)
from repro.analysis import kernel as kernel_mod
from repro.analysis.explorer import Explorer
from repro.analysis.kernel import PyKernel, compiled_available

AVAILABLE_KERNELS = ("python", "compiled") if compiled_available() else (
    "python",
)

REQUESTS = {
    "explore": ExploreRequest(n=4, inputs=(0, 1, 1, 0)),
    "verify": VerifyRequest(n=3),
    "refute": RefuteRequest(),
    "fuzz": FuzzRequest(candidate="one 2-SA", seed=1, budget=50),
}


def _kernel_types():
    kinds = [PyKernel]
    if compiled_available():
        from repro.analysis.kernel import _ckernel

        kinds.append(_ckernel.KernelState)
    return tuple(kinds)


def _live_kernels():
    kinds = _kernel_types()
    return sum(1 for obj in gc.get_objects() if type(obj) in kinds)


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_request_frees_every_explorer_and_kernel(
    monkeypatch, collector_off, kernel, command
):
    monkeypatch.setattr(kernel_mod, "select", lambda: kernel)
    created = []
    init = Explorer.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append((weakref.ref(self), self.kernel))

    monkeypatch.setattr(Explorer, "__init__", recording)
    kernels_before = _live_kernels()
    report = execute(REQUESTS[command])
    assert report.ok
    assert created, "the request built no explorer"
    assert {name for _ref, name in created} == {kernel}
    alive = [ref for ref, _name in created if ref() is not None]
    assert alive == []
    assert _live_kernels() == kernels_before


@pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
def test_inline_fuzz_request_builds_one_explorer(
    monkeypatch, collector_off, kernel
):
    # Every shard of the inline run, the shrinker, the strict replay
    # and the report's rendering share one explorer, built from one
    # candidate suite; it is freed when the request returns.
    from repro.protocols import candidates as candidates_mod

    monkeypatch.setattr(kernel_mod, "select", lambda: kernel)
    created = []
    init = Explorer.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(weakref.ref(self))

    suites = []
    build_suite = candidates_mod.all_candidates

    def counting_suite():
        suites.append(None)
        return build_suite()

    monkeypatch.setattr(Explorer, "__init__", recording)
    monkeypatch.setattr(candidates_mod, "all_candidates", counting_suite)
    kernels_before = _live_kernels()
    report = execute(FuzzRequest(candidate="one 2-SA", seed=1, budget=100))
    assert report.ok
    assert report.metrics["counters"]["pool.items"] == 4
    assert len(created) == 1
    assert len(suites) == 1
    assert [ref for ref in created if ref() is not None] == []
    assert _live_kernels() == kernels_before
