"""Coverage-guided fuzz campaigns: seeded, sharded, deterministic.

A *campaign* is ``budget`` gene-sequence executions against one target,
partitioned into ``shards`` independent sub-campaigns. Everything is a
pure function of ``(target key, seed, budget, shards, options, initial
corpus)``:

* each shard's RNG is seeded from a sha256 over ``(seed, shard, target
  key)`` — never from ``hash()``, wall clocks, or ``os.urandom``;
* the shard partition depends only on ``budget`` and ``shards`` —
  **not** on ``jobs`` — so fanning shards over a
  :class:`~repro.analysis.parallel.VerificationPool` with any worker
  count produces the same shard results, merged in shard order
  (``--jobs 1`` vs ``--jobs 2`` is bit-identical by construction);
* coverage feedback is the explorer's intern table: a run that
  allocates new configuration ids is *interesting* and its genes join
  the corpus, weighting future mutations toward the frontier.

Workers rebuild their target from its portable spec (explorers never
cross process boundaries) and return plain picklable records;
shrinking and the strict replay check run inside the shard, so a
finding arrives already minimized and replay-verified.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..analysis.explorer import Edge
from ..analysis.parallel import VerificationPool, WorkItem
from ..errors import AnalysisError
from .corpus import FuzzCorpus, corpus_fingerprint
from .executor import CYCLE, SAFETY, FuzzExecutor, Genes
from .shrink import replay_shrunk, shrink_genes
from .target import TargetSpec, target_from_spec

#: Gene component ranges for fresh material. Scheduler genes span more
#: than any realistic enabled-set size, choice genes more than any
#: spec's outcome fan-out; both only ever act through ``% len(...)``.
_SCHED_SPAN = 64
_CHOICE_SPAN = 8


def shard_seed(seed: int, shard: int, key: TargetSpec) -> int:
    """The shard's RNG seed: sha256-derived, ``PYTHONHASHSEED``-free."""
    digest = hashlib.sha256(
        repr((int(seed), int(shard), tuple(key))).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _fresh(rng: random.Random, max_steps: int) -> Genes:
    length = rng.randint(1, max_steps)
    return tuple(
        (rng.randrange(_SCHED_SPAN), rng.randrange(_CHOICE_SPAN))
        for _ in range(length)
    )


def mutate(
    rng: random.Random, pool: Sequence[Genes], max_steps: int
) -> Genes:
    """One mutated gene sequence: fresh material, or a corpus parent
    run through truncate / extend / point-mutate / splice."""
    if not pool or rng.random() < 0.3:
        return _fresh(rng, max_steps)
    parent = pool[rng.randrange(len(pool))]
    if not parent:
        return _fresh(rng, max_steps)
    operator = rng.randrange(4)
    if operator == 0:  # truncate
        return parent[: rng.randrange(1, len(parent) + 1)]
    if operator == 1:  # extend
        return parent + _fresh(rng, max(1, max_steps - len(parent)))
    if operator == 2:  # point mutation
        index = rng.randrange(len(parent))
        gene = (rng.randrange(_SCHED_SPAN), rng.randrange(_CHOICE_SPAN))
        return parent[:index] + (gene,) + parent[index + 1 :]
    other = pool[rng.randrange(len(pool))]  # splice
    return (
        parent[: rng.randrange(1, len(parent) + 1)]
        + other[rng.randrange(len(other) + 1) :]
    )


def run_shard(
    spec: TargetSpec,
    seed: int,
    shard: int,
    executions: int,
    max_steps: int = 64,
    shrink: bool = True,
    stop_on_finding: bool = True,
    initial_corpus: Tuple[Genes, ...] = (),
    kernel: Optional[str] = None,
) -> Dict[str, object]:
    """One shard's sub-campaign (module-level: pool-ready).

    Returns a plain picklable record: executions performed, coverage
    gained, the coverage growth curve (``(execution, coverage)`` at
    every execution that discovered new configurations), new corpus
    entries in discovery order, and findings that are already shrunk
    and replay-verified.
    """
    target = target_from_spec(spec)
    executor = FuzzExecutor(target, max_steps=max_steps, kernel=kernel)
    rng = random.Random(shard_seed(seed, shard, spec))
    coverage: set = set()
    pool: List[Genes] = [tuple(genes) for genes in initial_corpus]
    new_entries: List[Genes] = []
    findings: List[Dict[str, object]] = []
    growth: List[Tuple[int, int]] = []
    performed = 0
    first_finding: Optional[int] = None
    for index in range(executions):
        genes = mutate(rng, pool, max_steps)
        run = executor.execute(genes, coverage=coverage)
        performed += 1
        if run.new_coverage > 0:
            growth.append((index, len(coverage)))
            if run.edges:
                consumed = genes[: run.steps]
                pool.append(consumed)
                new_entries.append(consumed)
        if run.kind is None:
            continue
        if first_finding is None:
            first_finding = index
        finding: Dict[str, object] = {
            "kind": run.kind,
            "execution": index,
            "genes": genes[: run.steps],
            "schedule": run.edges,
            "violations": (
                run.verdict.violations if run.verdict is not None else ()
            ),
            "cycle_start": run.cycle_start,
            "shrunk_genes": None,
            "shrunk_schedule": None,
            "shrunk_violations": None,
            "replay_matches": None,
            "replay_mismatches": (),
        }
        if shrink:
            shrunk = shrink_genes(executor, genes[: run.steps], run.kind)
            shrunk_run, report = replay_shrunk(executor, shrunk)
            finding["shrunk_genes"] = shrunk
            finding["shrunk_schedule"] = shrunk_run.edges
            finding["shrunk_violations"] = (
                shrunk_run.verdict.violations
                if shrunk_run.verdict is not None
                else ()
            )
            finding["replay_matches"] = report.matches
            finding["replay_mismatches"] = report.mismatches
        findings.append(finding)
        if stop_on_finding:
            break
    # Published once per shard, not per execution: the shard runs under
    # the pool's scoped registry (inline or in a worker), so these fold
    # back into the campaign's metrics in shard-submission order.
    obs.counter("fuzz.executions", performed)
    obs.counter("fuzz.shrink_probes", executor.executions - performed)
    obs.counter("fuzz.new_coverage", len(coverage))
    obs.counter("fuzz.corpus_entries", len(new_entries))
    obs.counter("fuzz.findings", len(findings))
    return {
        "shard": shard,
        "executions": performed,
        "new_coverage": len(coverage),
        "growth": growth,
        "corpus": new_entries,
        "findings": findings,
        "first_finding": first_finding,
    }


@dataclass(frozen=True)
class FuzzFinding:
    """One violation, as discovered and as shrunk.

    ``execution`` is the campaign-global execution index (shard offset
    plus the shard-local index). ``replay_matches`` records the strict
    scripted round trip of the *shrunk* schedule (None when shrinking
    was disabled).
    """

    kind: str
    shard: int
    execution: int
    genes: Genes
    schedule: Tuple[Edge, ...]
    violations: Tuple[str, ...]
    cycle_start: Optional[int]
    shrunk_genes: Optional[Genes]
    shrunk_schedule: Optional[Tuple[Edge, ...]]
    shrunk_violations: Optional[Tuple[str, ...]]
    replay_matches: Optional[bool]
    replay_mismatches: Tuple[str, ...]


@dataclass(frozen=True)
class FuzzReport:
    """The deterministic outcome of one campaign."""

    key: TargetSpec
    target_name: str
    seed: int
    budget: int
    shards: int
    max_steps: int
    executions: int
    findings: Tuple[FuzzFinding, ...]
    coverage: int
    corpus_added: int
    corpus_seeded: int
    first_finding_execution: Optional[int]

    def observed_failure(self) -> str:
        """``"safety"`` / ``"liveness"`` / ``"none"``, by first finding
        (comparable with ``CandidateSystem.expected_failure``)."""
        if not self.findings:
            return "none"
        first = min(self.findings, key=lambda f: f.execution)
        return "liveness" if first.kind == CYCLE else SAFETY


def _shard_budgets(budget: int, shards: int) -> List[int]:
    base, remainder = divmod(budget, shards)
    return [
        base + (1 if shard < remainder else 0) for shard in range(shards)
    ]


def fuzz_campaign(
    spec: TargetSpec,
    seed: int = 0,
    budget: int = 200,
    shards: Optional[int] = None,
    jobs: int = 1,
    max_steps: int = 64,
    shrink: bool = True,
    stop_on_finding: bool = True,
    corpus: Optional[FuzzCorpus] = None,
    kernel: Optional[str] = None,
) -> FuzzReport:
    """Run one campaign against the target named by ``spec``.

    The shard partition is a function of ``budget`` and ``shards``
    alone; ``jobs`` only chooses how many worker processes execute
    them, so any jobs value yields the same report. With a ``corpus``,
    stored entries for this target seed every shard's mutation pool,
    and each shard's interesting discoveries are persisted back
    (content-addressed, so re-runs and sibling shards dedupe to
    identical files). ``kernel`` is every shard's exploration backend.
    """
    spec = tuple(spec)
    target = target_from_spec(spec)  # validates the spec up front
    if budget < 1:
        raise AnalysisError(f"fuzz budget must be >= 1, got {budget}")
    if shards is None:
        shards = max(1, min(4, budget))
    budgets = _shard_budgets(budget, shards)
    initial: Tuple[Genes, ...] = ()
    if corpus is not None:
        initial = tuple(corpus.entries(spec))
    items = [
        WorkItem(
            key=shard,
            fn=run_shard,
            args=(spec, seed, shard, budgets[shard]),
            kwargs={
                "max_steps": max_steps,
                "shrink": shrink,
                "stop_on_finding": stop_on_finding,
                "initial_corpus": initial,
                "kernel": kernel,
            },
        )
        for shard in range(shards)
        if budgets[shard] > 0
    ]
    obs.counter("fuzz.campaigns")
    results = VerificationPool(jobs=jobs).run(items)
    offsets = []
    offset = 0
    for shard_budget in budgets:
        offsets.append(offset)
        offset += shard_budget
    findings: List[FuzzFinding] = []
    executions = 0
    coverage = 0
    corpus_added = 0
    seen_entries = set()
    first_finding: Optional[int] = None
    for result in results:
        if not result.ok:
            raise AnalysisError(
                f"fuzz shard {result.key} failed: "
                f"{result.failure.render()}"
            )
        record = result.value
        shard = record["shard"]
        executions += record["executions"]
        coverage += record["new_coverage"]
        # Trace-only shard telemetry, emitted here in the parent (shard
        # workers cannot write the trace) in deterministic shard order;
        # the growth curve is mapped to campaign-global execution
        # indices so curves from different jobs values line up.
        obs.event(
            "fuzz.shard",
            target=target.name,
            shard=shard,
            executions=record["executions"],
            new_coverage=record["new_coverage"],
            findings=len(record["findings"]),
        )
        if record["growth"]:
            obs.event(
                "fuzz.growth",
                target=target.name,
                shard=shard,
                curve=[
                    [offsets[shard] + index, total]
                    for index, total in record["growth"]
                ],
            )
        for genes in record["corpus"]:
            fp = corpus_fingerprint(spec, genes)
            if fp in seen_entries:
                continue
            seen_entries.add(fp)
            if corpus is not None:
                if corpus.add(spec, genes, seed=seed, shard=shard):
                    corpus_added += 1
            else:
                corpus_added += 1
        if record["first_finding"] is not None:
            candidate = offsets[shard] + record["first_finding"]
            if first_finding is None or candidate < first_finding:
                first_finding = candidate
        for raw in record["findings"]:
            findings.append(
                FuzzFinding(
                    kind=raw["kind"],
                    shard=shard,
                    execution=offsets[shard] + raw["execution"],
                    genes=tuple(raw["genes"]),
                    schedule=tuple(raw["schedule"]),
                    violations=tuple(raw["violations"]),
                    cycle_start=raw["cycle_start"],
                    shrunk_genes=(
                        tuple(raw["shrunk_genes"])
                        if raw["shrunk_genes"] is not None
                        else None
                    ),
                    shrunk_schedule=(
                        tuple(raw["shrunk_schedule"])
                        if raw["shrunk_schedule"] is not None
                        else None
                    ),
                    shrunk_violations=(
                        tuple(raw["shrunk_violations"])
                        if raw["shrunk_violations"] is not None
                        else None
                    ),
                    replay_matches=raw["replay_matches"],
                    replay_mismatches=tuple(raw["replay_mismatches"]),
                )
            )
    return FuzzReport(
        key=spec,
        target_name=target.name,
        seed=seed,
        budget=budget,
        shards=shards,
        max_steps=max_steps,
        executions=executions,
        findings=tuple(findings),
        coverage=coverage,
        corpus_added=corpus_added,
        corpus_seeded=len(initial),
        first_finding_execution=first_finding,
    )
