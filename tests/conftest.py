"""Shared fixtures: explorer work counters and a surviving candidate."""

import pytest

from repro.analysis.explorer import Explorer


@pytest.fixture
def explore_calls(monkeypatch):
    """One entry per ``Explorer.explore`` call (one graph walk each)."""
    calls = []
    explore = Explorer.explore

    def counting(self, *args, **kwargs):
        calls.append(args)
        return explore(self, *args, **kwargs)

    monkeypatch.setattr(Explorer, "explore", counting)
    return calls


@pytest.fixture
def explorers_built(monkeypatch):
    """One entry per ``Explorer`` constructed."""
    built = []
    init = Explorer.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Explorer, "__init__", counting)
    return built


@pytest.fixture
def surviving_candidate(monkeypatch):
    """Swap Corollary 6.6's SA-arbiter reduction for a correct protocol
    (the 2-process queue consensus), so one candidate survives every
    schedule. Returns the survivor's name."""
    from repro.protocols import candidates

    monkeypatch.setattr(
        candidates, "dac_via_sa_arbiter", lambda n: candidates.consensus_via_queue(2)
    )
    return candidates.consensus_via_queue(2).name
