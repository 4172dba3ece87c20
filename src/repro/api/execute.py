"""One executor for every typed request: :func:`execute`.

The four phase bodies are private; every caller — the CLI commands,
the server's job runner, library code — funnels through
``execute(request)``:

* opens an observation session (joining the ambient one when the CLI
  or an outer call already holds it) tagged with the request's report
  command;
* dispatches on the request type and returns the schema-versioned
  :class:`repro.reports.Report` with the session's metrics snapshot
  embedded.

``execute`` raises on failure; callers that must always produce an
envelope — the server's job runner, the CLI driver — catch
:class:`repro.errors.ReproError` and fold it through
:func:`repro.errors.error_report`, which is how the error taxonomy
reaches HTTP statuses and exit codes from one table.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import obs
from ..errors import InvalidRequestError
from ..reports import Finding, Report
from .requests import (
    ExploreRequest,
    FuzzRequest,
    RefuteRequest,
    Request,
    VerifyRequest,
)

__all__ = ["execute"]


def execute(request: Request, *, trace: Optional[Any] = None) -> Report:
    """Run one typed request to its Report.

    ``trace`` is a filesystem path (or any object with ``write``)
    receiving the run's JSONL trace. The server passes each job's spool
    file here so subscribers can stream the tracer's spans and events
    as they happen; the CLI's ``--trace`` opens the ambient session
    this call joins instead.
    """
    body = _BODIES.get(type(request))
    if body is None:
        raise InvalidRequestError(
            f"not an executable request: {request!r}"
        )
    with obs.session(
        trace_path=trace, meta={"command": request.report_command}
    ) as sess:
        report = body(request)
        return report.with_metrics(sess.snapshot())


# -- pool-ready sweep items -------------------------------------------------
#
# Module-level so workers can import them by qualified name, and defined
# here rather than in the pool module so that an all-hit cached sweep
# loads no pool code. Each rebuilds its instance from primitive
# arguments — explorers and automata never cross the process boundary.


def algorithm2_instance_check(
    n: int,
    inputs: Tuple[Any, ...],
    symmetry: bool = False,
    max_configurations: int = 400_000,
) -> Dict[str, Any]:
    """Full Theorem 4.1 check of one ``(n, inputs)`` instance.

    Safety over all schedules, solo termination for every pid, plus the
    graph size — the per-instance body of ``repro check-algorithm2``.
    The counterexample (if any) is returned *rendered*, so the parent
    process never needs the worker's explorer.
    """
    from ..analysis.explorer import Explorer
    from ..analysis.render import render_counterexample
    from ..core.pac import NPacSpec
    from ..protocols.dac_from_pac import (
        algorithm2_processes,
        algorithm2_symmetry,
    )
    from ..protocols.tasks import DacDecisionTask

    inputs = tuple(inputs)
    explorer = Explorer({"PAC": NPacSpec(n)}, algorithm2_processes(inputs))
    sym = algorithm2_symmetry(inputs) if symmetry else None
    # One walk per instance: the safety audit and the size share it.
    exploration = explorer.explore(
        max_configurations=max_configurations, symmetry=sym
    )
    counterexample = explorer.check_safety(
        DacDecisionTask(n), inputs, exploration=exploration
    )
    rendered = None
    if counterexample is not None:
        rendered = render_counterexample(explorer, counterexample)
    solo_failures = []
    if counterexample is None:
        for pid in range(n):
            if not explorer.solo_termination(pid):
                solo_failures.append(pid)
    configurations = len(exploration)
    return {
        "inputs": inputs,
        "ok": counterexample is None and not solo_failures,
        "counterexample": rendered,
        "solo_failures": solo_failures,
        "configurations": configurations,
    }


def candidate_outcome(index: int) -> Dict[str, Any]:
    """Refute (or validate) candidate ``index`` of ``all_candidates()``.

    Returns the candidate's name, expected failure, observed outcome
    (``safety`` / ``liveness`` / ``none``) and the rendered witness —
    the per-candidate body of ``repro refute``.
    """
    from ..analysis.explorer import Explorer
    from ..analysis.render import render_counterexample, render_livelock
    from ..protocols.candidates import all_candidates

    candidate = all_candidates()[index]
    explorer = Explorer(candidate.objects, candidate.processes)
    outcome, witness = explorer.find_violation(candidate.task, candidate.inputs)
    if outcome == "safety":
        rendered = render_counterexample(explorer, witness)
    elif outcome == "liveness":
        rendered = render_livelock(explorer, witness)
    else:
        rendered = "no violation found over all schedules (correct protocol)"
    return {
        "name": candidate.name,
        "expected": candidate.expected_failure,
        "outcome": outcome,
        "rendered": rendered,
    }


# -- phase bodies -----------------------------------------------------------

#: The entry ``check-algorithm2 --cache`` stores per instance: the
#: record :func:`algorithm2_instance_check` returns.
_VERIFY_ENTRY = {
    "value": {
        "inputs": tuple,
        "ok": bool,
        "counterexample": (str, type(None)),
        "solo_failures": list,
        "configurations": int,
    }
}


def _verify_body(request: VerifyRequest) -> Report:
    from ..analysis.cache import ExplorationCache, cached_sweep, fingerprint
    from ..protocols.tasks import DacDecisionTask

    n = request.n
    symmetry = bool(request.symmetry)
    lines: List[str] = []
    findings: List[Finding] = []
    data: dict = {"n": n, "symmetry": symmetry}
    task = DacDecisionTask(n)
    inputs_list = [tuple(inputs) for inputs in task.input_assignments()]
    cache_obj = (
        ExplorationCache(request.options.cache_dir, shape=_VERIFY_ENTRY)
        if request.options.cache
        else None
    )

    def instance_fingerprint(inputs) -> str:
        return fingerprint(
            cmd="check-algorithm2",
            n=n,
            inputs=inputs,
            symmetry=symmetry,
            max_configurations=400_000,
        )

    with obs.span("verify", n=n, instances=len(inputs_list)), \
            obs.profile_phase("verify"):
        resolved, failures = cached_sweep(
            cache_obj,
            [
                (inputs, algorithm2_instance_check, (n, inputs, symmetry))
                for inputs in inputs_list
            ],
            instance_fingerprint,
            jobs=request.options.jobs,
        )
        if failures:
            # The first failing instance in sweep order is the error.
            inputs, failure = next(iter(failures.items()))
            line = f"ERROR at inputs {inputs}: {failure.render()}"
            return Report(
                command="check-algorithm2",
                status="error",
                exit_code=1,
                summary=line,
                body=(line,),
                findings=(
                    Finding(
                        "error", subject=str(inputs), detail=failure.render()
                    ),
                ),
                data=data,
            )

        total_configs = 0
        instances = []
        for inputs in inputs_list:
            record = resolved[inputs]
            if record["counterexample"] is not None:
                lines.append(f"VIOLATION at inputs {inputs}:")
                lines.append(record["counterexample"])
                findings.append(
                    Finding(
                        "safety",
                        subject=str(inputs),
                        detail=record["counterexample"],
                    )
                )
                return Report(
                    command="check-algorithm2",
                    status="violation",
                    exit_code=1,
                    summary=f"VIOLATION at inputs {inputs}",
                    body=tuple(lines),
                    findings=tuple(findings),
                    data=data,
                )
            if record["solo_failures"]:
                pid = record["solo_failures"][0]
                line = f"SOLO NON-TERMINATION: pid {pid}, inputs {inputs}"
                lines.append(line)
                findings.append(
                    Finding(
                        "solo-termination",
                        subject=str(inputs),
                        detail=line,
                        data={"pid": pid},
                    )
                )
                return Report(
                    command="check-algorithm2",
                    status="violation",
                    exit_code=1,
                    summary=line,
                    body=tuple(lines),
                    findings=tuple(findings),
                    data=data,
                )
            total_configs += record["configurations"]
            instances.append(
                {
                    "inputs": list(inputs),
                    "ok": record["ok"],
                    "configurations": record["configurations"],
                }
            )
        if cache_obj is not None:
            lines.append(
                f"cache: hits={cache_obj.hits} misses={cache_obj.misses}"
            )
        reduced = " (symmetry-reduced)" if symmetry else ""
        summary = (
            f"Theorem 4.1 @ n={n}: all {2 ** n} input assignments, "
            f"{total_configs} configurations{reduced} — "
            f"safety + solo termination ✓"
        )
        lines.append(summary)
        data.update(
            {
                "instances": instances,
                "total_configurations": total_configs,
                "cache": (
                    {"hits": cache_obj.hits, "misses": cache_obj.misses}
                    if cache_obj is not None
                    else None
                ),
            }
        )
        obs.counter("verify.instances", len(inputs_list))
        obs.gauge("verify.total_configurations", total_configs)
    return Report(
        command="check-algorithm2",
        summary=summary,
        body=tuple(lines),
        data=data,
    )


def _refute_body(request: RefuteRequest) -> Report:
    from ..analysis.parallel import VerificationPool, WorkItem
    from ..protocols.candidates import all_candidates

    candidate = request.candidate
    lines: List[str] = []
    findings: List[Finding] = []
    candidates = all_candidates()
    indices = list(range(len(candidates)))
    if candidate is not None:
        indices = [
            index
            for index in indices
            if candidate in candidates[index].name
        ]
        if not indices:
            line = (
                f"no candidate matching {candidate!r}; see list-candidates"
            )
            lines.append(line)
            return Report(
                command="refute",
                status="error",
                exit_code=1,
                summary=line,
                body=tuple(lines),
            )
    with obs.span("refute", candidates=len(indices)), \
            obs.profile_phase("refute"):
        pool = VerificationPool(jobs=request.options.jobs)
        results = pool.run(
            [
                WorkItem(
                    key=index,
                    fn=candidate_outcome,
                    args=(index,),
                )
                for index in indices
            ]
        )
        failed = False
        errored = False
        outcomes = []
        for result in results:
            cand = candidates[result.key]
            lines.append("")
            lines.append(
                f"=== {cand.name} (expected: {cand.expected_failure}) ==="
            )
            if not result.ok:
                lines.append(f"!! ERROR: {result.failure.render()}")
                findings.append(
                    Finding(
                        "error",
                        subject=cand.name,
                        detail=result.failure.render(),
                    )
                )
                errored = True
                continue
            record = result.value
            lines.append(record["rendered"])
            outcomes.append(
                {
                    "name": record["name"],
                    "expected": record["expected"],
                    "outcome": record["outcome"],
                }
            )
            if record["outcome"] != record["expected"]:
                lines.append(
                    f"!! MISMATCH: expected {record['expected']}, "
                    f"got {record['outcome']}"
                )
                findings.append(
                    Finding(
                        "mismatch",
                        subject=cand.name,
                        detail=(
                            f"expected {record['expected']}, "
                            f"got {record['outcome']}"
                        ),
                        data={
                            "expected": record["expected"],
                            "observed": record["outcome"],
                        },
                    )
                )
                failed = True
        obs.counter("refute.candidates", len(indices))
    status = "error" if errored else ("violation" if failed else "ok")
    verdict = "reproduced ✓" if status == "ok" else "NOT reproduced"
    return Report(
        command="refute",
        status=status,
        exit_code=0 if status == "ok" else 1,
        summary=f"{len(indices)} candidate(s): expected outcomes {verdict}",
        body=tuple(lines),
        findings=tuple(findings),
        data={"outcomes": outcomes},
    )


def _fuzz_body(request: FuzzRequest) -> Report:
    from ..analysis.render import render_schedule
    from ..fuzz.corpus import FuzzCorpus
    from ..fuzz.engine import fuzz_campaign
    from ..fuzz.executor import FuzzExecutor
    from ..fuzz.target import target_from_spec
    from ..protocols.candidates import all_candidates
    from ..protocols.tasks import DacDecisionTask

    candidate = request.candidate
    budget = request.budget
    seed = request.seed
    max_steps = request.max_steps
    lines: List[str] = []
    findings: List[Finding] = []
    candidates = None
    if request.algorithm2_n is not None:
        n = request.algorithm2_n
        specs: List[Tuple[Any, ...]] = [
            ("algorithm2", n, tuple(inputs))
            for inputs in DacDecisionTask(n).input_assignments()
        ]
    else:
        candidates = all_candidates()
        indices = list(range(len(candidates)))
        if candidate is not None:
            indices = [
                index
                for index in indices
                if candidate in candidates[index].name
            ]
            if not indices:
                line = (
                    f"no candidate matching {candidate!r}; "
                    f"see list-candidates"
                )
                lines.append(line)
                return Report(
                    command="fuzz",
                    status="error",
                    exit_code=1,
                    summary=line,
                    body=tuple(lines),
                )
        specs = [("candidate", index) for index in indices]

    corpus = FuzzCorpus(request.corpus_dir) if request.corpus_dir else None
    failed = False
    targets = []
    with obs.span("fuzz", targets=len(specs), budget=budget, seed=seed), \
            obs.profile_phase("fuzz"):
        for spec in specs:
            # One executor per target: the campaign's inline shards,
            # their shrinking and replay, and the rendering below all
            # run on its explorer, which is freed with the next target.
            target = target_from_spec(spec, candidates)
            executor = FuzzExecutor(target, max_steps=max_steps)
            campaign = fuzz_campaign(
                spec,
                seed=seed,
                budget=budget,
                shards=request.shards,
                jobs=request.options.jobs,
                max_steps=max_steps,
                shrink=request.shrink,
                corpus=corpus,
                executor=executor,
            )
            lines.append("")
            lines.append(
                f"=== {target.name} (expected: "
                f"{target.expected_failure}) ==="
            )
            lines.append(
                f"fuzz: seed={campaign.seed} budget={campaign.budget} "
                f"shards={campaign.shards} executions={campaign.executions} "
                f"coverage={campaign.coverage} "
                f"corpus+={campaign.corpus_added} "
                f"(seeded {campaign.corpus_seeded})"
            )
            observed = campaign.observed_failure()
            renderer = executor.explorer
            if not campaign.findings:
                lines.append(
                    f"no violation found in {campaign.executions} "
                    f"fuzzed runs"
                )
            for finding in campaign.findings:
                lines.append(
                    f"FOUND {finding.kind} at execution "
                    f"{finding.execution} (shard {finding.shard}): "
                    f"{len(finding.schedule)} steps"
                )
                findings.append(
                    Finding(
                        finding.kind,
                        subject=target.name,
                        detail=(
                            f"execution {finding.execution} "
                            f"(shard {finding.shard})"
                        ),
                        data={
                            "execution": finding.execution,
                            "shard": finding.shard,
                            "schedule_steps": len(finding.schedule),
                            "shrunk_steps": (
                                len(finding.shrunk_schedule)
                                if finding.shrunk_schedule is not None
                                else None
                            ),
                            "replay_matches": finding.replay_matches,
                        },
                    )
                )
                if finding.shrunk_schedule is None:
                    lines.append(render_schedule(renderer, finding.schedule))
                    continue
                replay = "✓" if finding.replay_matches else "DIVERGED"
                lines.append(
                    f"shrunk {len(finding.schedule)} -> "
                    f"{len(finding.shrunk_schedule)} steps; "
                    f"strict replay {replay}"
                )
                lines.append("shrunk schedule:")
                lines.append(
                    render_schedule(renderer, finding.shrunk_schedule)
                )
                for violation in finding.shrunk_violations or ():
                    lines.append(f"  violation: {violation}")
                if finding.replay_matches is False:
                    for mismatch in finding.replay_mismatches:
                        lines.append(f"  !! replay mismatch: {mismatch}")
                    findings.append(
                        Finding(
                            "replay-divergence",
                            subject=target.name,
                            detail="strict replay diverged",
                        )
                    )
                    failed = True
            if observed != target.expected_failure:
                lines.append(
                    f"!! MISMATCH: expected {target.expected_failure}, "
                    f"fuzzing observed {observed}"
                )
                findings.append(
                    Finding(
                        "mismatch",
                        subject=target.name,
                        detail=(
                            f"expected {target.expected_failure}, "
                            f"fuzzing observed {observed}"
                        ),
                        data={
                            "expected": target.expected_failure,
                            "observed": observed,
                        },
                    )
                )
                failed = True
            targets.append(
                {
                    "name": target.name,
                    "expected": target.expected_failure,
                    "observed": observed,
                    "executions": campaign.executions,
                    "coverage": campaign.coverage,
                    "shards": campaign.shards,
                    "corpus_added": campaign.corpus_added,
                    "corpus_seeded": campaign.corpus_seeded,
                    "findings": len(campaign.findings),
                }
            )
    status = "ok" if not failed else "violation"
    verdict = (
        "expectations reproduced ✓" if status == "ok" else "NOT reproduced"
    )
    return Report(
        command="fuzz",
        status=status,
        exit_code=0 if status == "ok" else 1,
        summary=f"{len(specs)} fuzz target(s): {verdict}",
        body=tuple(lines),
        findings=tuple(findings),
        data={
            "seed": seed,
            "budget": budget,
            "targets": targets,
        },
    )


def _explore_body(request: ExploreRequest) -> Report:
    from ..analysis.cache import (
        EXPLORE_RECORD,
        ExplorationCache,
        explore_cached,
    )

    n = request.n
    inputs = request.inputs
    symmetry = request.symmetry
    max_configurations = request.max_configurations
    assert inputs is not None  # normalized at construction

    def compute() -> Dict[str, Any]:
        # The engine loads only here: a warm cache hit never calls this.
        from ..analysis.explorer import Explorer
        from ..core.pac import NPacSpec
        from ..protocols.dac_from_pac import (
            algorithm2_processes,
            algorithm2_symmetry,
        )

        explorer = Explorer(
            {"PAC": NPacSpec(n)},
            algorithm2_processes(inputs),
        )
        result = explorer.explore(
            max_configurations=max_configurations,
            symmetry=algorithm2_symmetry(inputs) if symmetry else None,
        )
        return {
            "configurations": len(result),
            "complete": bool(result.complete),
        }

    with obs.span("explore", n=n, inputs=repr(inputs)), \
            obs.profile_phase("explore"):
        if symmetry:
            # The quotient graph is seed-local state; it is never cached.
            record, was_hit = compute(), False
        else:
            cache_obj = (
                ExplorationCache(
                    request.options.cache_dir, shape=EXPLORE_RECORD
                )
                if request.options.cache
                else None
            )
            record, was_hit = explore_cached(
                cache_obj,
                {
                    "cmd": "api-explore",
                    "n": n,
                    "inputs": inputs,
                    "max_configurations": max_configurations,
                },
                compute,
            )
    reduced = " (symmetry-reduced)" if symmetry else ""
    cached = " [cache hit]" if was_hit else ""
    summary = (
        f"explored {record['configurations']} configurations @ n={n}, "
        f"inputs {inputs}{reduced}{cached}"
    )
    return Report(
        command="explore",
        summary=summary,
        body=(summary,),
        data={
            "n": n,
            "inputs": list(inputs),
            "symmetry": bool(symmetry),
            "configurations": record["configurations"],
            "complete": record["complete"],
            "cache_hit": was_hit,
        },
    )


_BODIES: Dict[type, Callable[[Any], Report]] = {
    VerifyRequest: _verify_body,
    RefuteRequest: _refute_body,
    FuzzRequest: _fuzz_body,
    ExploreRequest: _explore_body,
}
