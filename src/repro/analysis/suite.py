"""One-call verification suites: explorer + adversary family + auditors.

The experiments keep repeating a verification recipe:

1. exhaustively model-check safety (and optionally solo termination /
   starvation-freedom) for the small instance;
2. sweep the named adversary family over the larger instance and audit
   every run.

:func:`verify_task_protocol` packages the recipe; it returns a
:class:`SuiteVerdict` with per-phase outcomes and is the engine behind
the protocol-facing tests added after its introduction (earlier tests
spell the recipe out — both forms are kept on purpose, the explicit
ones double as documentation).

Scale-out
---------

Every phase is a collection of *independent* work items — one per
(phase, inputs) or (phase, seed) — answered by
:func:`~repro.analysis.cache.cached_sweep`:

* ``jobs=1`` (default) runs the items inline, in order;
* ``jobs=N`` fans them over ``N`` worker processes; results merge by
  item key in submission order, so the verdict is byte-identical to
  the serial one (the determinism contract in ``docs/performance.md``);
* an item that *raises* becomes a structured failure folded into its
  phase's outcome (``ok=False`` with the error named in the detail)
  instead of aborting the whole sweep;
* with ``cache=`` an :class:`~repro.analysis.cache.ExplorationCache`,
  successful item results are persisted content-addressed — a warm
  rerun of the same sweep skips re-exploration entirely. The entries
  are keyed by ``cache_key``, or by the factory's qualified name when
  it is a module-level function; any other factory needs a
  ``cache_key``.

Pooled execution requires ``make_system`` to be picklable (a
module-level factory); closures silently fall back to inline
execution with identical results.
"""

from __future__ import annotations

import sys
import types
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import SpecificationError
from ..protocols.tasks import DecisionTask
from ..types import Value, require
from .cache import ExplorationCache, cached_sweep, fingerprint


@dataclass(frozen=True)
class PhaseOutcome:
    """One verification phase's outcome."""

    phase: str
    ok: bool
    detail: str


@dataclass
class SuiteVerdict:
    """All phases, plus an aggregate flag."""

    phases: List[PhaseOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(phase.ok for phase in self.phases)

    def failed_phases(self) -> List[PhaseOutcome]:
        """The failing phases, in recipe (insertion) order."""
        return [phase for phase in self.phases if not phase.ok]


# -- pool-ready phase item functions ----------------------------------------
#
# Module-level so a worker process can import them by qualified name;
# each rebuilds its system from the factory inside the worker.


def _safety_item(
    make_system: Callable,
    task: DecisionTask,
    inputs: Tuple[Value, ...],
    max_configurations: int,
) -> bool:
    """True iff ``inputs`` admits a safety violation."""
    from .explorer import Explorer

    objects, processes = make_system(tuple(inputs))
    explorer = Explorer(objects, processes)
    counterexample = explorer.check_safety(
        task, inputs, max_configurations=max_configurations
    )
    return counterexample is not None


def _livelock_item(
    make_system: Callable,
    inputs: Tuple[Value, ...],
    max_configurations: int,
) -> bool:
    """True iff ``inputs`` admits an adversarial non-deciding loop."""
    from .explorer import Explorer

    objects, processes = make_system(tuple(inputs))
    explorer = Explorer(objects, processes)
    return explorer.find_livelock(max_configurations=max_configurations) is not None


def _solo_item(
    make_system: Callable,
    num_processes: int,
    inputs: Tuple[Value, ...],
) -> Tuple[int, ...]:
    """The pids that fail solo termination at ``inputs``."""
    from .explorer import Explorer

    objects, processes = make_system(tuple(inputs))
    explorer = Explorer(objects, processes)
    return tuple(
        pid
        for pid in range(num_processes)
        if not explorer.solo_termination(pid)
    )


def _simulation_item(
    make_system: Callable,
    task: DecisionTask,
    inputs: Tuple[Value, ...],
    seed: int,
    max_steps: int,
) -> bool:
    """True iff the seeded adversarial run passes its audit."""
    from ..runtime.scheduler import SeededScheduler
    from ..runtime.system import System
    from .properties import audit_task_run

    objects, processes = make_system(tuple(inputs))
    system = System(objects, processes)
    history = system.run(SeededScheduler(seed), max_steps=max_steps)
    return audit_task_run(task, inputs, history).ok


def _task_identity(task: DecisionTask) -> Tuple:
    """A deterministic cache identity for a task (no default reprs)."""
    return (
        type(task).__module__,
        type(task).__qualname__,
        task.num_processes,
        getattr(task, "distinguished", None),
    )


def _factory_identity(make_system: Callable) -> str:
    """The cache identity of a module-level factory: its qualified name.

    Anything else — a ``functools.partial``, a lambda, a ``<locals>``
    function — shares its name with factories that build other
    protocols, so a cached verdict could answer for the wrong one; the
    caller must name it with ``cache_key``.
    """
    if isinstance(make_system, types.FunctionType):
        module, name = make_system.__module__, make_system.__qualname__
        if getattr(sys.modules.get(module), name, None) is make_system:
            return f"{module}.{name}"
    raise SpecificationError(
        f"cannot derive a cache identity for {make_system!r}: only a "
        f"module-level function names its protocol; pass cache_key="
    )


def _phase_errors(
    keys: Sequence[Any], failures: Dict[Any, Any]
) -> List[Tuple[Any, str]]:
    return [(key, failures[key].render()) for key in keys if key in failures]


def _error_suffix(errors: List[Tuple[Any, str]]) -> str:
    return f"; errors at {errors}" if errors else ""


def verify_task_protocol(
    task: DecisionTask,
    make_system: Callable[[Tuple[Value, ...]], Tuple[dict, list]],
    exhaustive_inputs: Optional[Sequence[Tuple[Value, ...]]] = None,
    require_wait_free: bool = True,
    require_solo_termination: bool = True,
    simulation_inputs: Optional[Tuple[Value, ...]] = None,
    simulation_seeds: int = 10,
    max_steps: int = 4000,
    max_configurations: int = 400_000,
    jobs: int = 1,
    cache: Optional[ExplorationCache] = None,
    cache_key: Optional[str] = None,
) -> SuiteVerdict:
    """Run the standard verification recipe for one protocol.

    ``make_system(inputs)`` builds ``(object table, process list)``.
    ``exhaustive_inputs`` defaults to the task's own assignment space.
    ``jobs`` fans the per-input/per-seed checks over worker processes;
    ``cache`` persists successful phase results (``cache_key`` names
    the protocol — defaults to the qualified name of a module-level
    factory; any other factory raises :class:`SpecificationError`
    without one).
    """
    verdict = SuiteVerdict()

    inputs_list = [
        tuple(inputs)
        for inputs in (
            exhaustive_inputs
            if exhaustive_inputs is not None
            else task.input_assignments()
        )
    ]
    require(bool(inputs_list), SpecificationError, "no input assignments")

    if cache is not None and cache_key is None:
        cache_key = _factory_identity(make_system)
    base_components = {
        "suite": "verify_task_protocol",
        "protocol": cache_key,
        "task": _task_identity(task),
        "max_configurations": max_configurations,
    }

    items: List[Tuple[Any, Callable, Tuple]] = []

    def add_item(phase: str, subkey: Tuple, fn: Callable, args: Tuple) -> Any:
        key = (phase, subkey)
        items.append((key, fn, args))
        return key

    def item_fingerprint(key: Tuple[str, Tuple]) -> str:
        phase, subkey = key
        return fingerprint(**base_components, phase=phase, subkey=subkey)

    safety_keys = [
        add_item(
            "exhaustive-safety",
            (inputs,),
            _safety_item,
            (make_system, task, inputs, max_configurations),
        )
        for inputs in inputs_list
    ]
    livelock_keys = (
        [
            add_item(
                "no-livelock",
                (inputs,),
                _livelock_item,
                (make_system, inputs, max_configurations),
            )
            for inputs in inputs_list
        ]
        if require_wait_free
        else []
    )
    solo_keys = (
        [
            add_item(
                "solo-termination",
                (inputs,),
                _solo_item,
                (make_system, task.num_processes, inputs),
            )
            for inputs in inputs_list
        ]
        if require_solo_termination
        else []
    )
    simulation_keys = (
        [
            add_item(
                "randomized-adversaries",
                (tuple(simulation_inputs), seed),
                _simulation_item,
                (make_system, task, tuple(simulation_inputs), seed, max_steps),
            )
            for seed in range(simulation_seeds)
        ]
        if simulation_inputs is not None
        else []
    )

    values, failures = cached_sweep(cache, items, item_fingerprint, jobs=jobs)

    # Phase 1: exhaustive safety.
    bad_inputs = [key[1][0] for key in safety_keys if values.get(key)]
    errors = _phase_errors(safety_keys, failures)
    verdict.phases.append(
        PhaseOutcome(
            "exhaustive-safety",
            not bad_inputs and not errors,
            f"{len(inputs_list)} assignments"
            + (f"; violations at {bad_inputs}" if bad_inputs else "")
            + _error_suffix(errors),
        )
    )

    # Phase 2: starvation-freedom (wait-free protocols only).
    if require_wait_free:
        starving = [key[1][0] for key in livelock_keys if values.get(key)]
        errors = _phase_errors(livelock_keys, failures)
        verdict.phases.append(
            PhaseOutcome(
                "no-livelock",
                not starving and not errors,
                f"checked {len(inputs_list)} assignments"
                + (f"; loops at {starving}" if starving else "")
                + _error_suffix(errors),
            )
        )

    # Phase 3: solo termination.
    if require_solo_termination:
        stuck = [
            (key[1][0], pid)
            for key in solo_keys
            for pid in values.get(key, ())
        ]
        errors = _phase_errors(solo_keys, failures)
        verdict.phases.append(
            PhaseOutcome(
                "solo-termination",
                not stuck and not errors,
                f"every process, every assignment"
                + (f"; stuck: {stuck}" if stuck else "")
                + _error_suffix(errors),
            )
        )

    # Phase 4: randomized adversaries on the nominated instance.
    if simulation_inputs is not None:
        failed_seeds = sum(
            1
            for key in simulation_keys
            if key in values and not values[key]
        )
        errors = _phase_errors(simulation_keys, failures)
        verdict.phases.append(
            PhaseOutcome(
                "randomized-adversaries",
                failed_seeds == 0 and not errors,
                f"{simulation_seeds} seeds, {failed_seeds} failures"
                + _error_suffix(errors),
            )
        )

    return verdict
