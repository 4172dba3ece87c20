"""``engine-batch``: one in-process caller runs ``repro.api.execute``
over a seeded list of cold requests, closed loop, cache off.

Why: the engine layers (kernel, explorer, valency, fuzz, parallel) do
nearly all the work here, and import, HTTP and the result caches do
none, so an engine optimisation shows here and nowhere else.

One *pass* is a fixed list whose class counts never change with the
seed; the seed only picks inputs, fuzz seeds and the order after the
three verify requests, which always lead. Class shares
keep the 50th and 90th percentiles inside a class, away from a class
boundary (latencies on a 2-vCPU virtual machine, python kernel):

=========================  =====  ===============  ==========
class                      count  typical latency  cumulative
=========================  =====  ===============  ==========
refute, one candidate         10  2-5 ms           \ 0-31 %
fuzz, one candidate           10  8-35 ms          /
fuzz, algorithm2_n=2           2  ~50 ms           \ 31-83 %
explore n=5, every input      32  25-100 ms        /
explore n=6                    8  75-350 ms        \ 83-98 %
verify n=4, jobs=nproc         2  ~170 ms          /
verify n=5, jobs=nproc         1  ~900 ms          98-100 %
=========================  =====  ===============  ==========

After one untimed pass (the first runs slower while the program fills
its in-memory tables), the run repeats the pass until ``--seconds``
have passed (at least :data:`MIN_PASSES` times). A speed probe
(``harness.SpeedMeter``) runs untimed after every request, and every
latency is rescaled by the probes around it to reference speed;
``wall_s`` is the median rescaled pass time.
``setup_s`` is the median of :data:`SETUP_STARTS` fresh interpreters'
``import repro.api``, at reference speed (``harness.timed_setups``).
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import subprocess
import sys
from typing import Dict, List, Tuple

import harness
from harness import FUZZ_BUDGET, BenchError, clock, metric

NAME = "engine-batch"
MIN_PASSES = 3
#: Requests per pass whose reports are re-computed after the timed
#: window and compared byte for byte.
CHECKED = 8
SETUP_STARTS = 9

_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import repro.api\n"
    "print(time.perf_counter() - t)\n"
)


def build_pass(seed: int) -> List[Dict[str, object]]:
    """The seeded request list of one pass, in wire form."""
    from repro.protocols.candidates import all_candidates

    rng = random.Random(f"{NAME}:{seed}")
    jobs = os.cpu_count() or 1
    names = [candidate.name for candidate in all_candidates()]
    seeds = iter(rng.sample(range(1, 1 << 30), len(names) + 2))
    requests: List[Dict[str, object]] = []
    for name in names:
        requests.append({"command": "refute", "candidate": name})
        requests.append({"command": "fuzz", "candidate": name,
                         "seed": next(seeds), "budget": FUZZ_BUDGET})
    for _ in range(2):
        requests.append({"command": "fuzz", "algorithm2_n": 2,
                         "seed": next(seeds), "budget": FUZZ_BUDGET})
    for inputs in itertools.product((0, 1), repeat=5):
        requests.append({"command": "explore", "n": 5, "inputs": list(inputs)})
    for inputs in rng.sample(list(itertools.product((0, 1), repeat=6)), 8):
        requests.append({"command": "explore", "n": 6, "inputs": list(inputs)})
    for n, count in ((4, 2), (5, 1)):
        requests.extend(
            {"command": "verify", "n": n, "options": {"jobs": jobs}}
            for _ in range(count)
        )
    rng.shuffle(requests)
    # The verify requests, which fork pool workers, lead the pass: a
    # forked worker's RSS counts the heap it shares with this process,
    # so the peak memory would otherwise depend on the seeded order.
    requests.sort(key=lambda r: r["command"] != "verify")
    return requests


def _warm_up(execute, request_from_dict) -> None:
    """Pay lazy imports and first-call set-up outside the timed window."""
    for payload in (
        {"command": "refute", "candidate": "2-consensus from one 2-SA"},
        {"command": "explore", "n": 4},
        {"command": "fuzz", "candidate": "2-consensus from one 2-SA",
         "budget": 20},
        {"command": "fuzz", "algorithm2_n": 2, "budget": 20},
        {"command": "verify", "n": 3,
         "options": {"jobs": os.cpu_count() or 1}},
    ):
        execute(request_from_dict(payload))


def _run_pass(execute, requests, keep: Tuple[int, ...], meter=None):
    """Execute one pass; returns (latencies, failures, kept reports).
    With a ``meter``, a speed probe follows every request, untimed."""
    latencies: List[float] = []
    failures = 0
    kept = {}
    for index, request in enumerate(requests):
        started = clock()
        report = execute(request)
        latencies.append(clock() - started)
        if meter is not None:
            meter.probe()
        if report.status != "ok" or report.exit_code != 0:
            failures += 1
        if index in keep:
            kept[index] = report
    return latencies, failures, kept


def _check(execute, requests, kept) -> int:
    """Re-run the kept requests untimed; count byte mismatches."""
    mismatches = 0
    for index, report in kept.items():
        if execute(requests[index]).to_json() != report.to_json():
            mismatches += 1
            print(f"  MISMATCH request {index}: {requests[index]}",
                  file=sys.stderr)
    return mismatches


def _timed_passes(ctx, execute, requests, keep, meter):
    """Run whole passes until ``--seconds`` have passed (at least
    :data:`MIN_PASSES`; exactly ``--passes`` when that is given).
    Returns (passes, latencies, failures, kept reports)."""
    passes = 0
    raw: List[float] = []
    failures = 0
    kept = {}
    started = clock()
    while passes < (ctx.passes or MIN_PASSES) or (
        not ctx.passes and clock() - started < ctx.seconds
    ):
        pass_latencies, pass_failures, pass_kept = _run_pass(
            execute, requests, keep if not passes else (), meter
        )
        passes += 1
        raw.extend(pass_latencies)
        failures += pass_failures
        kept.update(pass_kept)
    return passes, raw, failures, kept


def run(ctx) -> dict:
    setup = (0.0, 0.0) if ctx.passes else harness.timed_setups(
        lambda: harness.time_fresh_processes(
            [sys.executable, "-c", _IMPORT_PROBE], 1,
            cwd=ctx.rundir.path, reported=True)[0],
        SETUP_STARTS, ctx.rundir.path,
    )
    if ctx.trace:
        return _run_traced(ctx, setup)

    from repro.api import execute, request_from_dict

    requests = [request_from_dict(p) for p in build_pass(ctx.seed)]
    keep = tuple(random.Random(ctx.seed).sample(range(len(requests)), CHECKED))
    _warm_up(execute, request_from_dict)
    gc.collect()

    if ctx.passes:  # the untraced reference for a traced run
        _, raw, failures, _ = _timed_passes(ctx, execute, requests, (), None)
        return {"correct": failures == 0, "attempted": len(raw),
                "failed": failures, "metrics": {},
                "notes": {"sum_latency_s": sum(raw)}}
    # The first pass runs slower (the program fills its in-memory
    # tables); a whole untimed pass makes every timed pass alike.
    _run_pass(execute, requests, ())
    # The peak is read before the speed meter exists: the pool workers
    # forked after it would count its chain as theirs.
    peak = harness.peak_rss_mb()
    meter = harness.SpeedMeter()
    gc.collect()
    passes, raw, failures, kept = _timed_passes(
        ctx, execute, requests, keep, meter)
    mismatches = _check(execute, requests, kept)

    # Every request is rescaled by the speed probes around it.
    latencies = [t * f for t, f in zip(raw, meter.factors())]
    size = len(requests)
    pass_times = [sum(latencies[i:i + size])
                  for i in range(0, len(latencies), size)]
    metrics = {
        "setup_s": metric(setup[0], "s"),
        "wall_s": metric(harness.median(pass_times), "s"),
        "p50_ms": metric(1000 * harness.percentile(latencies, 0.50), "ms"),
        "tail_ms": metric(1000 * harness.percentile(latencies, 0.90), "ms"),
        "capacity_rps": metric(len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": metric(peak, "MiB"),
    }
    notes = {
        "passes": passes,
        "requests_per_pass": size,
        "samples": len(latencies),
        "tail_percentile": "p90",
        "checked": len(kept),
        "probe_ms": round(1000 * harness.median(meter.samples), 4),
        "raw_setup_s": round(setup[1], 4),
        "raw_wall_s": round(harness.median(
            sum(raw[i:i + size]) for i in range(0, len(raw), size)), 4),
        "raw_p50_ms": round(1000 * harness.percentile(raw, 0.50), 4),
        "raw_p90_ms": round(1000 * harness.percentile(raw, 0.90), 4),
    }
    return {
        "correct": failures == 0 and mismatches == 0,
        "attempted": len(latencies) + len(kept),
        "failed": failures + mismatches,
        "metrics": metrics,
        "notes": notes,
    }


def _untraced_pass(ctx) -> float:
    """Summed request latency of one untraced pass, in a fresh process."""
    done = subprocess.run(
        [sys.executable, os.path.join(ctx.bench_dir, "run.py"),
         "--workload", NAME, "--seed", str(ctx.seed), "--seconds", "0",
         "--trace", "0", "--passes", "1"],
        cwd=ctx.checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise BenchError(f"untraced pass failed: {done.stderr[-400:]}")
    for line in done.stdout.splitlines():
        if "note sum_latency_s" in line:
            return float(line.rsplit("=", 1)[1])
    raise BenchError("untraced pass printed no sum_latency_s")


def _run_traced(ctx, setup) -> dict:
    import spans
    import layers

    untraced = _untraced_pass(ctx)
    out_dir = ctx.rundir.sub("spans")
    rec = spans.install(out_dir, "main")
    from repro.api import execute, request_from_dict

    requests = [request_from_dict(p) for p in build_pass(ctx.seed)]
    keep = tuple(random.Random(ctx.seed).sample(range(len(requests)), CHECKED))
    _warm_up(execute, request_from_dict)
    gc.collect()
    rec.records = []
    window_start = clock()
    latencies, failures, kept = _run_pass(execute, requests, keep)
    window_end = clock()
    rec.flush()
    records = spans.load(out_dir)
    mismatches = _check(execute, requests, kept)
    loaded = sum(1 for name in sys.modules if name.split(".")[0] == "repro")

    metrics = layers.summarize(
        records,
        window=(window_start, window_end),
        critical=lambda r: r[layers.ROLE] == "main",
        traced_wall_ms=1000 * sum(latencies),
        untraced_wall_ms=1000 * untraced,
        given={
            "cli.interp_ms": harness.interpreter_floor_ms(ctx.rundir.path),
            "cli.modules": loaded,
        },
    )
    return {
        "correct": failures == 0 and mismatches == 0,
        "attempted": len(latencies) + len(kept),
        "failed": failures + mismatches,
        "metrics": metrics,
        "notes": {"requests": len(requests),
                  "setup_s": setup[0],
                  "engine_share": layers.engine_share(metrics)},
    }
