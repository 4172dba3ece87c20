"""One executor for every typed request: :func:`execute`.

The four phase bodies (moved here from the pre-request ``repro/api.py``)
are private; everything — the keyword-only façade wrappers, the CLI
adapters, the server's job runner — funnels through
``execute(request)``:

* opens an observation session (joining the ambient one when the CLI
  or an outer call already holds it) tagged with the request's report
  command;
* hands the request's ``options.kernel`` explicitly to every
  :class:`~repro.analysis.explorer.Explorer` the body builds — pool
  workers receive it through their work items' keyword arguments, so
  no process environment is ever written;
* dispatches on the request type and returns the schema-versioned
  :class:`repro.reports.Report` with the session's metrics snapshot
  embedded.

``execute`` raises on failure (preserving the façade's exception
semantics); callers that must always produce an envelope — the server's
job runner, the CLI driver — catch :class:`repro.errors.ReproError`
and fold it through :func:`repro.errors.error_report`, which is how the
error taxonomy reaches HTTP statuses and exit codes from one table.
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

    ``trace`` overrides ``request.options.trace`` — a filesystem path
    (or any object with ``write``) receiving the run's JSONL trace;
    the server passes each job's spool file here so subscribers can
    stream the tracer's spans and events as they happen.
    """
    body = _BODIES.get(type(request))
    if body is None:
        raise InvalidRequestError(
            f"not an executable request: {request!r}"
        )
    options = request.options  # type: ignore[attr-defined]
    trace_path = trace if trace is not None else options.trace
    with obs.session(
        trace_path=trace_path, meta={"command": request.report_command}
    ) as sess:
        report = body(request)
        return report.with_metrics(sess.snapshot())


# -- phase bodies -----------------------------------------------------------


def _verify_body(request: VerifyRequest) -> Report:
    from ..analysis.cache import ExplorationCache, fingerprint
    from ..analysis.parallel import (
        VerificationPool,
        WorkItem,
        algorithm2_instance_check,
    )
    from ..protocols.tasks import DacDecisionTask

    n = request.n
    symmetry = request.symmetry
    jobs = request.options.jobs
    lines: List[str] = []
    findings: List[Finding] = []
    data: dict = {"n": n, "symmetry": bool(symmetry), "jobs": jobs}
    task = DacDecisionTask(n)
    inputs_list = [tuple(inputs) for inputs in task.input_assignments()]
    cache_obj = (
        ExplorationCache(request.options.cache_dir)
        if request.options.cache
        else None
    )

    with obs.span("verify", n=n, instances=len(inputs_list)), \
            obs.profile_phase("verify"):
        # Cache-first: warm instances resolve without any exploration (or
        # worker dispatch); only misses go to the pool.
        resolved = {}
        fingerprints = {}
        to_run = []
        for inputs in inputs_list:
            if cache_obj is not None:
                fp = fingerprint(
                    cmd="check-algorithm2",
                    n=n,
                    inputs=inputs,
                    symmetry=bool(symmetry),
                    max_configurations=400_000,
                )
                fingerprints[inputs] = fp
                payload = cache_obj.get(fp)
                if payload is not None:
                    resolved[inputs] = payload["value"]
                    continue
            to_run.append(
                WorkItem(
                    key=inputs,
                    fn=algorithm2_instance_check,
                    args=(n, inputs, bool(symmetry)),
                    kwargs={"kernel": request.options.kernel},
                )
            )
        pool = VerificationPool(jobs=jobs)
        for result in pool.run(to_run):
            if not result.ok:
                line = (
                    f"ERROR at inputs {result.key}: {result.failure.render()}"
                )
                lines.append(line)
                findings.append(
                    Finding(
                        "error",
                        subject=str(result.key),
                        detail=result.failure.render(),
                    )
                )
                return Report(
                    command="check-algorithm2",
                    status="error",
                    exit_code=1,
                    summary=line,
                    body=tuple(lines),
                    findings=tuple(findings),
                    data=data,
                )
            resolved[result.key] = result.value
            if cache_obj is not None:
                cache_obj.put(fingerprints[result.key], {"value": result.value})

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
    from ..analysis.parallel import (
        VerificationPool,
        WorkItem,
        candidate_outcome,
    )
    from ..protocols.candidates import all_candidates

    candidate = request.candidate
    jobs = request.options.jobs
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
        pool = VerificationPool(jobs=jobs)
        results = pool.run(
            [
                WorkItem(
                    key=index,
                    fn=candidate_outcome,
                    args=(index,),
                    kwargs={"kernel": request.options.kernel},
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
        data={"jobs": jobs, "outcomes": outcomes},
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
    jobs = request.options.jobs
    kernel = request.options.kernel
    max_steps = request.max_steps
    lines: List[str] = []
    findings: List[Finding] = []
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
            target = target_from_spec(spec)
            campaign = fuzz_campaign(
                spec,
                seed=seed,
                budget=budget,
                shards=request.shards,
                jobs=jobs,
                max_steps=max_steps,
                shrink=request.shrink,
                corpus=corpus,
                kernel=kernel,
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
            renderer = FuzzExecutor(
                target, max_steps=max_steps, kernel=kernel
            ).explorer
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
            "jobs": jobs,
            "targets": targets,
        },
    )


def _explore_body(request: ExploreRequest) -> Report:
    from ..analysis.cache import ExplorationCache, explore_cached
    from ..analysis.explorer import Explorer
    from ..core.pac import NPacSpec
    from ..protocols.dac_from_pac import (
        algorithm2_processes,
        algorithm2_symmetry,
    )

    n = request.n
    inputs = request.inputs
    symmetry = request.symmetry
    max_configurations = request.max_configurations
    assert inputs is not None  # normalized at construction
    explorer = Explorer(
        {"PAC": NPacSpec(n)},
        algorithm2_processes(inputs),
        kernel=request.options.kernel,
    )
    with obs.span("explore", n=n, inputs=repr(inputs)), \
            obs.profile_phase("explore"):
        was_hit = False
        if symmetry:
            # The quotient graph is seed-local state; it is never cached.
            result = explorer.explore(
                max_configurations=max_configurations,
                symmetry=algorithm2_symmetry(inputs),
            )
        else:
            cache_obj = (
                ExplorationCache(request.options.cache_dir)
                if request.options.cache
                else None
            )
            result, was_hit = explore_cached(
                explorer,
                cache_obj,
                {"cmd": "api-explore", "n": n, "inputs": inputs},
                max_configurations=max_configurations,
            )
    reduced = " (symmetry-reduced)" if symmetry else ""
    cached = " [cache hit]" if was_hit else ""
    summary = (
        f"explored {len(result)} configurations @ n={n}, "
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
            "configurations": len(result),
            "complete": bool(result.complete),
            "cache_hit": was_hit,
        },
    )


_BODIES: Dict[type, Callable[[Any], Report]] = {
    VerifyRequest: _verify_body,
    RefuteRequest: _refute_body,
    FuzzRequest: _fuzz_body,
    ExploreRequest: _explore_body,
}
