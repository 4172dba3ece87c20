"""Public-API hygiene: everything exported must resolve and be stable."""

import inspect
import pickle
import warnings
from dataclasses import fields

import pytest

import repro
import repro.analysis
import repro.core
import repro.objects
import repro.protocols
import repro.runtime
import repro.workloads


ALL_PACKAGES = [
    repro,
    repro.analysis,
    repro.core,
    repro.objects,
    repro.protocols,
    repro.runtime,
    repro.workloads,
]


class TestExports:
    @pytest.mark.parametrize(
        "package", ALL_PACKAGES, ids=[p.__name__ for p in ALL_PACKAGES]
    )
    def test_all_names_resolve(self, package):
        assert hasattr(package, "__all__")
        for name in package.__all__:
            assert hasattr(package, name), f"{package.__name__}.{name}"

    @pytest.mark.parametrize(
        "package", ALL_PACKAGES, ids=[p.__name__ for p in ALL_PACKAGES]
    )
    def test_all_is_sorted_unique(self, package):
        names = list(package.__all__)
        assert len(names) == len(set(names)), "duplicate exports"

    def test_version(self):
        assert repro.__version__
        major = int(repro.__version__.split(".")[0])
        assert major >= 1

    @pytest.mark.parametrize(
        "package", ALL_PACKAGES, ids=[p.__name__ for p in ALL_PACKAGES]
    )
    def test_docstrings_everywhere(self, package):
        assert package.__doc__ and len(package.__doc__) > 40


class TestValuePickling:
    """States, operations, and configurations are plain values; users
    may ship them across processes (e.g. parallel exploration)."""

    def test_operations_pickle(self):
        from repro.types import op

        operation = op("propose", "v", 1)
        assert pickle.loads(pickle.dumps(operation)) == operation

    def test_pac_state_pickles(self):
        from repro.core.pac import NPacSpec
        from repro.types import op

        spec = NPacSpec(2)
        state, _responses = spec.run([op("propose", 1, 1)])
        clone = pickle.loads(pickle.dumps(state))
        assert clone == state
        # The sentinel fields keep their identity semantics:
        _next, response = spec.apply(clone, op("decide", 1))
        assert response == 1

    def test_configuration_pickles(self):
        from repro.analysis.explorer import Explorer
        from repro.objects.consensus import MConsensusSpec
        from repro.protocols.consensus import one_shot_consensus_processes

        explorer = Explorer(
            {"CONS": MConsensusSpec(2)},
            one_shot_consensus_processes([0, 1]),
        )
        config = explorer.initial_configuration()
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert hash(clone) == hash(config)

    def test_steps_pickle(self):
        from repro.runtime.events import Invoke, Step
        from repro.types import BOTTOM, op

        step = Step(0, 1, Invoke("PAC", op("decide", 1)), BOTTOM)
        clone = pickle.loads(pickle.dumps(step))
        assert clone == step
        assert clone.response is BOTTOM


class TestSignatures:
    def test_public_surface(self):
        # One way in: a typed request run through ``execute``.
        from repro import api

        assert sorted(api.__all__) == [
            "ExecutionOptions",
            "ExploreRequest",
            "FuzzRequest",
            "REQUEST_TYPES",
            "RefuteRequest",
            "VerifyRequest",
            "execute",
            "request_from_dict",
        ]
        functions = {
            name
            for name, value in vars(api).items()
            if inspect.isfunction(value)
        }
        assert functions == {"execute", "request_from_dict"}
        assert [f.name for f in fields(api.ExecutionOptions)] == [
            "jobs",
            "cache",
            "cache_dir",
        ]


class TestFuzzEngineNamesRemoved:
    """The PR-5 deprecation window closed: the shim is gone for good."""

    @pytest.mark.parametrize(
        "name",
        [
            "FuzzFinding",
            "FuzzReport",
            "fuzz_campaign",
            "mutate",
            "run_shard",
            "shard_seed",
        ],
    )
    def test_engine_names_no_longer_resolve_from_the_package(self, name):
        import repro.fuzz

        assert name not in repro.fuzz.__all__
        with pytest.raises(AttributeError):
            getattr(repro.fuzz, name)

    def test_engine_module_is_the_supported_home(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.fuzz.engine import (  # noqa: F401
                FuzzReport,
                fuzz_campaign,
            )

    def test_supported_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.fuzz import FuzzExecutor, FuzzTarget  # noqa: F401
