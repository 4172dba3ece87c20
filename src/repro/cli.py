"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — the 60-second n-PAC / Algorithm 2 tour;
* ``check-algorithm2 --n N`` — model-check Theorem 4.1 at size N;
* ``refute [--candidate NAME]`` — run the doomed-candidate suite and
  render each witness (the executable face of Theorems 4.2 / 5.2);
* ``separation --n N`` / ``ledger --n N`` — Corollary 6.6 at level N,
  as its verdict chain or as the implementability ledger behind it:
  two views of one :func:`repro.core.relations.separation_report`;
* ``power`` — print the set agreement power table;
* ``list-candidates`` — name the candidate suite;
* ``lint`` — the protocol-aware static analysis pass (replayability
  contract R001–R006 plus the interprocedural R007/R10x family, see
  :mod:`repro.lint`);
* ``cache stats|clear`` — inspect or drop the persistent exploration
  cache (see :mod:`repro.analysis.cache`);
* ``fuzz`` — seeded coverage-guided schedule/response fuzzing of the
  candidate suite (or Algorithm 2 instances), with automatic
  counterexample shrinking and strict replay verification (see
  :mod:`repro.fuzz` and ``docs/fuzzing.md``). ``--seed``-pinned runs
  are bit-reproducible, including across ``--jobs`` values;
* ``explore`` — build one Algorithm 2 instance's reachable
  configuration graph and report its shape;
* ``report TRACE`` — render a recorded JSONL trace into a summary
  (see :mod:`repro.obs` and ``docs/observability.md``);
* ``serve`` — run the asyncio verification service (request
  coalescing, warm result cache, streaming traces; see
  :mod:`repro.serve` and ``docs/serve.md``);
* ``serve-smoke`` — the end-to-end serve correctness harness CI runs.

Exploration runs on the compiled kernel backend when the C extension
is built and on the python backend otherwise; there is no flag, since
both produce byte-identical reports, verdicts, and cache keys (see
``docs/performance.md``).

Every command builds a :class:`repro.reports.Report` and renders it
through one renderer: ``--format text`` (default) prints the report
body — byte-identical to the pre-report printers — and ``--format
json`` prints the full serialized report, metrics snapshot included.
``--trace PATH`` records a structured JSONL trace of the run;
``--profile`` adds cProfile tables to it.

Sweep commands (``check-algorithm2``, ``refute``, ``fuzz``) accept
``--jobs N`` to fan their independent instances over a worker pool;
all paths report byte-identical results to the serial run. The heavy
commands (``check-algorithm2``, ``refute``, ``fuzz``, ``explore``)
build a typed request and run it through :func:`repro.api.execute`.

Every command exits 0 on "the paper's claim reproduced" and 1
otherwise, so the CLI doubles as a smoke-check in CI. Failures that
the error taxonomy names (:mod:`repro.errors`) exit with that code's
stable number — e.g. 2 for INVALID_REQUEST, 3 for KERNEL_UNAVAILABLE —
the same table the server renders as HTTP statuses.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import obs
from .errors import InvalidRequestError, ReproError, error_report
from .reports import Finding, Report, render_report

# Engine modules are imported inside the handlers that use them, so a
# command loads only its own path (see "Start-up cost" in
# docs/performance.md).


def _cmd_demo(_args: argparse.Namespace) -> Report:
    from .analysis.explorer import Explorer
    from .core.pac import NPacSpec
    from .protocols.dac_from_pac import algorithm2_processes
    from .protocols.tasks import DacDecisionTask
    from .types import op

    spec = NPacSpec(2)
    _state, responses = spec.run(
        [op("propose", "hello", 1), op("decide", 1)]
    )
    lines = [
        f"2-PAC: propose('hello', 1) -> {responses[0]!r}; "
        f"decide(1) -> {responses[1]!r}"
    ]
    inputs = (1, 0, 0)
    explorer = Explorer({"PAC": NPacSpec(3)}, algorithm2_processes(inputs))
    verdict = explorer.check_safety(DacDecisionTask(3), inputs)
    lines.append(
        f"Algorithm 2 @ n=3, inputs {inputs}: "
        f"{'no violation over all schedules ✓' if verdict is None else 'VIOLATION'}"
    )
    ok = verdict is None
    return Report(
        command="demo",
        status="ok" if ok else "violation",
        exit_code=0 if ok else 1,
        summary=lines[-1],
        body=tuple(lines),
        data={"n": 3, "inputs": list(inputs), "violation": not ok},
    )


def _cmd_check_algorithm2(args: argparse.Namespace) -> Report:
    from .api import ExecutionOptions, VerifyRequest, execute

    return execute(
        VerifyRequest(
            n=args.n,
            symmetry=args.symmetry,
            options=ExecutionOptions(
                jobs=args.jobs, cache=args.cache, cache_dir=args.cache_dir
            ),
        )
    )


def _cmd_refute(args: argparse.Namespace) -> Report:
    from .api import ExecutionOptions, RefuteRequest, execute

    return execute(
        RefuteRequest(
            candidate=args.candidate,
            options=ExecutionOptions(jobs=args.jobs),
        )
    )


def _cmd_fuzz(args: argparse.Namespace) -> Report:
    from .api import ExecutionOptions, FuzzRequest, execute

    return execute(
        FuzzRequest(
            candidate=args.candidate,
            algorithm2_n=args.algorithm2_n,
            budget=args.budget,
            seed=args.seed,
            shards=args.shards,
            corpus_dir=args.corpus_dir,
            shrink=args.shrink,
            max_steps=args.max_steps,
            options=ExecutionOptions(jobs=args.jobs),
        )
    )


def _cmd_explore(args: argparse.Namespace) -> Report:
    from .api import ExecutionOptions, ExploreRequest, execute

    inputs = None
    if args.inputs is not None:
        try:
            inputs = tuple(
                int(part)
                for part in args.inputs.split(",")
                if part.strip() != ""
            )
        except ValueError:
            raise InvalidRequestError(
                f"inputs must be comma-separated integers, got {args.inputs!r}"
            ) from None
    return execute(
        ExploreRequest(
            n=args.n,
            inputs=inputs,
            symmetry=args.symmetry,
            max_configurations=args.max_configurations,
            options=ExecutionOptions(
                cache=args.cache, cache_dir=args.cache_dir
            ),
        )
    )


def _cmd_cache(args: argparse.Namespace) -> Report:
    from .analysis.cache import ExplorationCache

    cache = ExplorationCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        lines = [
            f"cache root: {stats.root}",
            f"entries:    {stats.entries}",
            f"bytes:      {stats.total_bytes}",
        ]
        return Report(
            command="cache",
            summary=f"{stats.entries} cache entries",
            body=tuple(lines),
            data={
                "action": "stats",
                "root": stats.root,
                "entries": stats.entries,
                "bytes": stats.total_bytes,
            },
        )
    removed = cache.clear()
    line = f"removed {removed} entries from {cache.root}"
    return Report(
        command="cache",
        summary=line,
        body=(line,),
        data={"action": "clear", "root": str(cache.root), "removed": removed},
    )


def _cmd_separation(args: argparse.Namespace) -> Report:
    from .core.relations import separation_report

    n = args.n
    report = separation_report(n)
    survivor = next(iter(report.survivors), "")
    uncertified = ", ".join(report.uncertified)
    cells = ", ".join(
        name + "".join(f" ({cell.k}, {cell.process_count})" for cell in row)
        for name, row in report.power_cells
    )
    # (holds, finding kind, line if it fails, line if it holds), in the
    # order the first failure is reported.
    steps = [
        (
            report.same_power,
            "power-mismatch",
            f"POWER MISMATCH: {uncertified} not certified"
            if uncertified
            else "POWER MISMATCH",
            "powers agree on the first 8 components; certified (k, n_k) "
            f"cells: {cells} ✓",
        ),
        (
            report.on_solves_dac,
            "safety",
            f"O_{n} FAILED to solve {n + 1}-DAC",
            f"O_{n} solves {n + 1}-DAC over all schedules ✓",
        ),
        (
            not survivor,
            "not-refuted",
            f"candidate NOT refuted: {survivor}",
            f"{len(report.candidates)}/{len(report.candidates)} candidate "
            f"reductions over O'_{n}'s base family refuted ✓",
        ),
    ]
    lines = [report.on_power.describe(5), report.on_prime_power.describe(5)]
    for holds, kind, failure, line in steps:
        if not holds:
            lines.append(failure)
            return Report(
                command="separation",
                status="violation",
                exit_code=1,
                summary=failure,
                body=tuple(lines),
                findings=(Finding(kind, subject=f"level {n}", detail=failure),),
                data={"n": n},
            )
        lines.append(line)
    summary = f"Corollary 6.6 at level {n}: same power, not equivalent."
    lines.append(summary)
    return Report(
        command="separation",
        summary=summary,
        body=tuple(lines),
        data={"n": n, "refuted": len(report.candidates)},
    )


def _cmd_ledger(args: argparse.Namespace) -> Report:
    from dataclasses import asdict

    from .core.relations import separation_report

    report = separation_report(args.n)
    lines = [
        f"implementability ledger @ level n={args.n} "
        f"(every edge re-verified just now):"
    ]
    edges = []
    for edge in report.ledger.edges():
        arrow = "--implements-->" if edge.positive else "--CANNOT-->"
        lines.append(f"  {edge.source} {arrow} {edge.target}")
        lines.append(f"      evidence: {edge.evidence}")
        edges.append(asdict(edge))
    if report.conflicts:
        lines.extend(f"  !! CONFLICT: {conflict}" for conflict in report.conflicts)
        return Report(
            command="ledger",
            status="violation",
            exit_code=1,
            summary=f"{len(report.conflicts)} ledger conflict(s)",
            body=tuple(lines),
            findings=tuple(
                Finding("conflict", subject=f"n={args.n}", detail=conflict)
                for conflict in report.conflicts
            ),
            data={"n": args.n, "edges": edges},
        )
    reproduced = report.reproduces_corollary_6_6
    lines.append("")
    summary = (
        f"Corollary 6.6 at level {args.n}: "
        f"{'reproduced ✓' if reproduced else 'NOT reproduced'}"
    )
    lines.append(summary)
    return Report(
        command="ledger",
        status="ok" if reproduced else "violation",
        exit_code=0 if reproduced else 1,
        summary=summary,
        body=tuple(lines),
        data={"n": args.n, "edges": edges, "reproduced": reproduced},
    )


def _cmd_power(_args: argparse.Namespace) -> Report:
    from .core.power import (
        combined_pac_power,
        m_consensus_power,
        on_power,
        register_power,
        strong_sa_power,
    )

    powers = [
        register_power(),
        m_consensus_power(2),
        m_consensus_power(3),
        strong_sa_power(2),
        combined_pac_power(3, 2),
        on_power(2),
        on_power(3),
    ]
    lines = [power.describe(6) for power in powers]
    return Report(
        command="power",
        summary=f"{len(powers)} power profiles",
        body=tuple(lines),
        data={"profiles": len(powers)},
    )


def _cmd_list_candidates(_args: argparse.Namespace) -> Report:
    from .protocols.candidates import all_candidates

    candidates = all_candidates()
    lines = [
        f"{candidate.name:55s} expected: {candidate.expected_failure}"
        for candidate in candidates
    ]
    return Report(
        command="list-candidates",
        summary=f"{len(candidates)} candidates",
        body=tuple(lines),
        data={
            "candidates": [
                {
                    "name": candidate.name,
                    "expected": candidate.expected_failure,
                }
                for candidate in candidates
            ]
        },
    )


def _cmd_lint(args: argparse.Namespace) -> Report:
    import json
    from pathlib import Path

    from .lint.cli import default_target
    from .lint.engine import all_rules, lint_paths

    if args.list_rules:
        rules = all_rules()
        lines = [
            f"{rule.rule_id}  {rule.severity:7s}  {rule.title}"
            for rule in rules
        ]
        return Report(
            command="lint",
            summary=f"{len(rules)} rules",
            body=tuple(lines),
            data={"rules": [rule.rule_id for rule in rules]},
        )
    paths = [Path(p) for p in args.paths] or [default_target()]
    missing = [p for p in paths if not p.exists()]
    if missing:
        lines = [f"repro lint: no such path: {path}" for path in missing]
        return Report(
            command="lint",
            status="error",
            exit_code=2,
            summary=lines[0],
            body=tuple(lines),
        )
    select = (
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select
        else None
    )
    try:
        lint_report = lint_paths(
            paths,
            select=select,
            jobs=getattr(args, "jobs", 1),
            cache_dir=getattr(args, "cache_dir", None),
        )
    except ValueError as exc:
        line = f"repro lint: {exc}"
        return Report(
            command="lint",
            status="error",
            exit_code=2,
            summary=line,
            body=(line,),
        )
    payload = json.loads(lint_report.to_json())
    if getattr(args, "format", "text") == "sarif":
        from .lint.sarif import render_sarif

        payload["sarif"] = render_sarif(lint_report)
    code = lint_report.exit_code()
    text = lint_report.render_text(show_suppressed=args.show_suppressed)
    return Report(
        command="lint",
        status="ok" if code == 0 else "error",
        exit_code=code,
        summary=f"{payload['summary']['errors']} lint error(s)",
        body=tuple(text.split("\n")),
        data=payload,
    )


def _cmd_report(args: argparse.Namespace) -> Report:
    from .obs import report as obs_report

    try:
        summary = obs_report.summarize_file(args.trace_file)
    except (OSError, ValueError) as exc:
        line = f"repro report: {exc}"
        return Report(
            command="report",
            status="error",
            exit_code=1,
            summary=line,
            body=(line,),
        )
    text = obs_report.render_text(summary)
    return Report(
        command="report",
        summary=f"{summary['records']} trace records",
        body=tuple(text.split("\n")),
        data=summary,
    )


def _add_observability_arguments(
    parser: argparse.ArgumentParser, include_format: bool = True
) -> None:
    """``--format/--trace/--profile``, shared by every command."""
    if include_format:
        parser.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default: text)",
        )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a structured JSONL trace of this run "
        "(see docs/observability.md)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="embed cProfile top-N tables in the trace (needs --trace)",
    )


def _add_cache_dir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: .repro-cache)",
    )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """The cache flags shared by ``check-algorithm2`` and ``explore``."""
    parser.add_argument(
        "--cache",
        action="store_true",
        help="reuse (and persist) this command's answer records — "
        "per-instance verdicts or graph sizes, never graphs — in the "
        "content-addressed cache",
    )
    _add_cache_dir_argument(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable reproduction of 'Life Beyond Set Agreement' "
        "(PODC 2017)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="60-second PAC / Algorithm 2 tour")
    _add_observability_arguments(demo)

    check = commands.add_parser(
        "check-algorithm2", help="model-check Theorem 4.1 at size n"
    )
    check.add_argument("--n", type=int, default=3)
    check.add_argument(
        "--symmetry",
        action="store_true",
        help="explore the symmetry-reduced quotient graph (sound for "
        "Algorithm 2: non-distinguished equal-input processes are "
        "interchangeable; see docs/performance.md)",
    )
    check.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the input sweep (default: 1, serial; "
        "results are merged deterministically either way)",
    )
    _add_cache_arguments(check)
    _add_observability_arguments(check)

    refute = commands.add_parser(
        "refute", help="refute the doomed candidate suite with witnesses"
    )
    refute.add_argument("--candidate", default=None,
                        help="substring of a candidate name")
    refute.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the candidate sweep (default: 1, "
        "serial; results are merged deterministically either way)",
    )
    _add_observability_arguments(refute)

    fuzz = commands.add_parser(
        "fuzz",
        help="coverage-guided schedule/response fuzzing with automatic "
        "counterexample shrinking (see docs/fuzzing.md)",
    )
    fuzz.add_argument(
        "--candidate",
        default=None,
        help="substring of a candidate name (default: whole suite)",
    )
    fuzz.add_argument(
        "--algorithm2-n",
        type=int,
        default=None,
        help="fuzz every Algorithm 2 input assignment at size n "
        "instead of the candidate suite",
    )
    fuzz.add_argument(
        "--budget",
        type=int,
        default=300,
        help="fuzzed executions per target (default: 300)",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign seed; runs are bit-reproducible per seed "
        "(default: 0)",
    )
    fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the shard fan-out (default: 1; any "
        "value yields identical results)",
    )
    fuzz.add_argument(
        "--shards",
        type=int,
        default=None,
        help="independent sub-campaigns per target (default: "
        "min(4, budget); part of the deterministic partition, "
        "unlike --jobs)",
    )
    fuzz.add_argument(
        "--corpus-dir",
        default=None,
        help="persist interesting gene sequences here and seed future "
        "campaigns from them (default: no persistence)",
    )
    fuzz.add_argument(
        "--shrink",
        action="store_true",
        default=True,
        help="delta-debug findings to minimal replayable schedules "
        "(default: on)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_false",
        dest="shrink",
        help="keep findings as discovered",
    )
    fuzz.add_argument(
        "--max-steps",
        type=int,
        default=64,
        help="maximum schedule length per fuzzed run (default: 64)",
    )
    _add_observability_arguments(fuzz)

    explore = commands.add_parser(
        "explore",
        help="build one Algorithm 2 instance's configuration graph and "
        "report its shape",
    )
    explore.add_argument("--n", type=int, default=3)
    explore.add_argument(
        "--inputs",
        default=None,
        help="comma-separated input assignment (default: the paper's "
        "initial inputs at size n)",
    )
    explore.add_argument(
        "--symmetry",
        action="store_true",
        help="explore the symmetry-reduced quotient graph",
    )
    explore.add_argument(
        "--max-configurations",
        type=int,
        default=400_000,
        help="exploration budget (default: 400000)",
    )
    _add_cache_arguments(explore)
    _add_observability_arguments(explore)

    cache = commands.add_parser(
        "cache", help="persistent exploration cache maintenance"
    )
    cache.add_argument("action", choices=("stats", "clear"))
    _add_cache_dir_argument(cache)
    _add_observability_arguments(cache)

    separation = commands.add_parser(
        "separation", help="run the Corollary 6.6 pipeline at level n"
    )
    separation.add_argument("--n", type=int, default=2)
    _add_observability_arguments(separation)

    power = commands.add_parser(
        "power", help="print set agreement power table"
    )
    _add_observability_arguments(power)
    list_candidates = commands.add_parser(
        "list-candidates", help="name the candidate suite"
    )
    _add_observability_arguments(list_candidates)

    ledger = commands.add_parser(
        "ledger",
        help="re-verify and print the implementability ledger at level n",
    )
    ledger.add_argument("--n", type=int, default=2)
    _add_observability_arguments(ledger)

    from .lint.cli import add_lint_arguments

    lint = commands.add_parser(
        "lint",
        help="protocol-aware static analysis (replayability contract "
        "R001-R006)",
    )
    add_lint_arguments(lint)
    _add_observability_arguments(lint, include_format=False)

    trace_report = commands.add_parser(
        "report",
        help="render a recorded JSONL trace into a summary "
        "(see docs/observability.md)",
    )
    trace_report.add_argument(
        "trace_file",
        help="path to a trace written with --trace",
    )
    _add_observability_arguments(trace_report)

    serve = commands.add_parser(
        "serve",
        help="run the asyncio verification service (see docs/serve.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="listen port; 0 picks a free one (default: 8642)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="job process-pool size (default: 2)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="live-job bound; past it submissions get 429 (default: 64)",
    )
    serve.add_argument(
        "--result-cache",
        type=int,
        default=256,
        help="warm result cache capacity, in reports (default: 256)",
    )
    serve.add_argument(
        "--job-history",
        type=int,
        default=256,
        help="finished jobs kept for /jobs/<id> (default: 256)",
    )
    serve.add_argument(
        "--spool-dir",
        default=None,
        help="directory for per-job trace spool files "
        "(default: a private temporary directory)",
    )

    commands.add_parser(
        "serve-smoke",
        help="boot a server and check the serve contract end to end",
    )
    return parser


_HANDLERS = {
    "demo": _cmd_demo,
    "check-algorithm2": _cmd_check_algorithm2,
    "refute": _cmd_refute,
    "separation": _cmd_separation,
    "power": _cmd_power,
    "list-candidates": _cmd_list_candidates,
    "ledger": _cmd_ledger,
    "lint": _cmd_lint,
    "cache": _cmd_cache,
    "fuzz": _cmd_fuzz,
    "explore": _cmd_explore,
    "report": _cmd_report,
}


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServerConfig, run_server

    return run_server(
        ServerConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_queue=args.max_queue,
            result_cache_size=args.result_cache,
            job_history_size=args.job_history,
            spool_dir=args.spool_dir,
        )
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # The serve commands never run under the CLI's ambient observation
    # session: the session stack is process-global, and an ambient
    # session would be joined (or inherited across fork) by the job
    # workers, swallowing their per-job spool tracers.
    if args.command == "serve":
        try:
            return _cmd_serve(args)
        except ReproError as exc:
            report = error_report("serve", exc)
            print(render_report(report, "text"))
            return report.exit_code
    if args.command == "serve-smoke":
        from .serve.smoke import run_smoke

        report = run_smoke()
        print(render_report(report, "text"))
        return report.exit_code
    with obs.session(
        trace_path=getattr(args, "trace", None),
        profile=getattr(args, "profile", False),
        meta={"command": args.command},
    ) as sess:
        try:
            report = _HANDLERS[args.command](args)
        except ReproError as exc:
            # The error taxonomy's third consumer: the same table that
            # picks the server's HTTP status picks the exit code here.
            report = error_report(args.command, exc)
        report = report.with_metrics(sess.snapshot())
        print(render_report(report, getattr(args, "format", "text")))
    return report.exit_code


def console_main(argv: Optional[Sequence[str]] = None) -> int:
    """:func:`main` for a console entry point (``python -m repro``,
    ``repro-lint``): a reader that goes away early (``| head``) ends
    the run with exit code 1 and no traceback."""
    try:
        code = main(argv)
        # Flush inside the try, so a closed pipe surfaces here and not
        # at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The recipe from the ``signal`` module's documentation: point
        # stdout at devnull so the flush at exit cannot raise again,
        # then exit non-zero as an interrupted writer should.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(console_main())
