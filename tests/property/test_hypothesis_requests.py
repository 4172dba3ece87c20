"""Property tests: request fingerprints are canonical content addresses.

The server's coalescing map, its warm result cache, and the on-disk
exploration cache all key on :meth:`Request.fingerprint`. Two
properties make that key trustworthy:

* **soundness** — requests equal under canonicalization produce
  identical fingerprints, *including across interpreter boundaries
  with different ``PYTHONHASHSEED``* (a fingerprint computed by the
  server must match one computed by a CLI run yesterday);
* **discrimination** — changing any single semantic field produces a
  different fingerprint, while changing any
  :class:`ExecutionOptions` knob never does.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.requests import (
    ExecutionOptions,
    ExploreRequest,
    FuzzRequest,
    RefuteRequest,
    VerifyRequest,
)

# -- strategies -------------------------------------------------------------

_names = st.one_of(st.none(), st.text(min_size=0, max_size=12))

_options = st.builds(
    ExecutionOptions,
    jobs=st.integers(min_value=1, max_value=8),
    cache=st.booleans(),
    cache_dir=st.one_of(st.none(), st.just("/tmp/somewhere")),
)

_verify = st.builds(
    VerifyRequest,
    n=st.integers(min_value=1, max_value=6),
    symmetry=st.booleans(),
    options=_options,
)

_refute = st.builds(RefuteRequest, candidate=_names, options=_options)

_fuzz = st.builds(
    FuzzRequest,
    candidate=_names,
    budget=st.integers(min_value=1, max_value=10_000),
    seed=st.integers(min_value=-(2**31), max_value=2**31),
    shards=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    shrink=st.booleans(),
    max_steps=st.integers(min_value=1, max_value=256),
    options=_options,
)


@st.composite
def _explores(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    inputs = draw(
        st.one_of(
            st.none(),
            st.tuples(
                *[st.integers(min_value=0, max_value=3) for _ in range(n)]
            ),
        )
    )
    return ExploreRequest(
        n=n,
        inputs=inputs,
        symmetry=draw(st.booleans()),
        max_configurations=draw(
            st.integers(min_value=1, max_value=500_000)
        ),
        options=draw(_options),
    )


_requests = st.one_of(_verify, _refute, _fuzz, _explores())


# -- soundness --------------------------------------------------------------


class TestSoundness:
    @settings(max_examples=60, deadline=None)
    @given(request=_requests)
    def test_canonical_equal_implies_fingerprint_equal(self, request):
        # Rebuild through the wire format: a different object, equal
        # under canonicalization, must carry the same address.
        from repro.api.requests import request_from_dict

        rebuilt = request_from_dict(request.to_dict())
        assert rebuilt.canonical() == request.canonical()
        assert rebuilt.fingerprint() == request.fingerprint()

    @settings(max_examples=40, deadline=None)
    @given(request=_requests, options=_options)
    def test_options_are_invisible(self, request, options):
        assert (
            request.with_options(options).fingerprint()
            == request.fingerprint()
        )

    def test_fingerprints_survive_hash_seed_boundaries(self):
        """The same requests fingerprint identically in subprocesses
        pinned to different PYTHONHASHSEED values — str hashing must
        never leak into the address (the R001 replayability contract,
        extended to the request model)."""
        script = (
            "from repro.api.requests import (VerifyRequest, FuzzRequest, "
            "ExploreRequest, RefuteRequest, ExecutionOptions)\n"
            "print(VerifyRequest(n=3, symmetry=True).fingerprint())\n"
            "print(RefuteRequest(candidate='one 2-SA').fingerprint())\n"
            "print(FuzzRequest(candidate='queue', seed=7, budget=123,"
            " options=ExecutionOptions(jobs=3)).fingerprint())\n"
            "print(ExploreRequest(n=3).fingerprint())\n"
        )
        outputs = set()
        for seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [os.path.abspath("src"),
                              env.get("PYTHONPATH", "")])
            )
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1, "fingerprints vary with PYTHONHASHSEED"


# -- discrimination ---------------------------------------------------------


#: Optional fields whose populated shape is an int, not a string.
_INT_WHEN_NONE = {"algorithm2_n", "shards"}


def _bump(value, name=""):
    """A deterministically different value of the field's shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value is None:
        return 1 if name in _INT_WHEN_NONE else "bumped"
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return tuple(_bump(item) for item in value) or (1,)
    raise AssertionError(f"unbumpable: {value!r}")


class TestDiscrimination:
    @settings(max_examples=60, deadline=None)
    @given(request=st.one_of(_verify, _refute, _fuzz))
    def test_any_semantic_change_readdresses(self, request):
        import dataclasses

        baseline = request.fingerprint()
        for name, value in request.semantic_fields().items():
            changed = dataclasses.replace(request, **{name: _bump(value, name)})
            assert changed.fingerprint() != baseline, name

    @settings(max_examples=30, deadline=None)
    @given(request=_explores())
    def test_explore_semantic_changes_readdress(self, request):
        import dataclasses

        baseline = request.fingerprint()
        # inputs must track n; bump them jointly and individually where
        # the shape allows it.
        grown = ExploreRequest(
            n=request.n + 1,
            inputs=tuple(request.inputs) + (0,),
            symmetry=request.symmetry,
            max_configurations=request.max_configurations,
        )
        assert grown.fingerprint() != baseline
        for name in ("symmetry", "max_configurations"):
            changed = dataclasses.replace(
                request, **{name: _bump(getattr(request, name))}
            )
            assert changed.fingerprint() != baseline, name
        shifted_inputs = dataclasses.replace(
            request, inputs=_bump(tuple(request.inputs))
        )
        assert shifted_inputs.fingerprint() != baseline
