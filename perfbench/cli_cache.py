"""``cli-cache``: one fresh ``python -m repro ... --format json`` process
at a time, closed loop, over the on-disk exploration cache.

Why: interpreter start plus ``import repro`` is most of every command
here, and the cache's reads and writes are the rest; the engine is
nearly idle. A lazy-import or cache-format change shows here and not in
``engine-batch``.

Set-up pre-warms part of the key space (explore at n=4 and n=5 for
six inputs each, ``check-algorithm2 --n 3``) in a fresh process, five
times into fresh directories; ``setup_s`` is the median. The timed
list is five *blocks* of twenty commands whose composition never
changes with the seed:

==============================  =====  ==========  ==================
class                           count  extra cost  cumulative (sorted)
==============================  =====  ==========  ==================
explore n=4, 4 hits + 2 misses      6  ~10 ms      0-30 %
check-algorithm2 hit                3  \\
refute, one candidate               2   > ~100 ms  30-65 %
fuzz, one candidate, budget 100     2  /
explore n=5, 4 hits + 2 misses      6  ~230 ms     65-95 %
check-algorithm2 miss               1  ~200 ms     95-100 %
==============================  =====  ==========  ==================

"Extra cost" is on top of the start-up floor (``import repro``), which
is most of every command. The 50th and 80th percentiles sit inside a
class. A hit is a key the cache already holds (pre-warmed or seen
earlier in the list); a miss is a first-seen key that explores and
writes. ``wall_s`` is the median block time; the tail reported is p80,
which keeps 20 of the 100 samples beyond it.

Every time here is start-up-bound, and the speed of process start-up
on a shared 2-vCPU virtual machine swings by up to 1.5x between
minutes. So a bare ``python -c pass`` is timed before every command
(and before every pre-warm), and the gated times are rescaled to a
machine whose bare start takes ``harness.REFERENCE_FLOOR_MS``
(:func:`harness.at_reference_speed`). The raw times are printed as
notes.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from typing import Dict, List, Tuple

import harness
from harness import FUZZ_BUDGET, BenchError, clock, metric

NAME = "cli-cache"
BLOCK = 20
#: The list is fixed-size (``--seconds`` is not read): the key pools
#: hold enough first-seen keys for exactly five blocks.
BLOCKS = 5
#: Explore inputs pre-warmed per size (n=4 and n=5).
PREWARMED = 6
#: Commands per run whose output is compared byte for byte with a
#: direct ``repro.api.execute`` answer computed after the timed window.
CHECKED = 6
SETUP_STARTS = 5
TAIL = 0.80

_PREWARM = (
    "import json, sys, time\n"
    "t = time.perf_counter()\n"
    "from repro.api import execute, request_from_dict\n"
    "for payload in json.loads(sys.argv[1]):\n"
    "    report = execute(request_from_dict(payload))\n"
    "    assert report.status == 'ok', report.summary\n"
    "print(time.perf_counter() - t)\n"
)


def _explore(n: int, inputs) -> Dict[str, object]:
    return {"command": "explore", "n": n, "inputs": list(inputs)}


def _verify(n: int, symmetry: bool) -> Dict[str, object]:
    return {"command": "verify", "n": n, "symmetry": symmetry}


def plan(seed: int, blocks: int, names: List[str]):
    """``(prewarm, commands)``: requests in wire form, without cache
    options. Each command is ``(class, request, is_hit)``."""
    rng = random.Random(f"{NAME}:{seed}")
    pools = {}
    warm = set()
    prewarm = []
    for n in (4, 5):
        keys = [tuple(i) for i in itertools.product((0, 1), repeat=n)]
        rng.shuffle(keys)
        prewarm += [_explore(n, inputs) for inputs in keys[:PREWARMED]]
        warm.update((n, inputs) for inputs in keys[:PREWARMED])
        pools[n] = keys[PREWARMED:]
    prewarm.append(_verify(3, False))
    check_warm = [(3, False)]
    check_cold = [(2, False), (2, True), (3, True), (4, False), (4, True)]
    rng.shuffle(check_cold)

    commands: List[Tuple[str, Dict[str, object], bool]] = []
    for _ in range(blocks):
        block = []
        for n in (4, 5):
            seen = sorted(key for key in warm if key[0] == n)
            for key in rng.sample(seen, 4):
                block.append((f"explore-n{n}", _explore(*key), True))
            for _ in range(2):
                inputs = pools[n].pop()
                block.append((f"explore-n{n}", _explore(n, inputs), False))
        for _ in range(3):
            block.append(("check", _verify(*rng.choice(check_warm)), True))
        if check_cold:
            key = check_cold.pop()
            block.append(("check", _verify(*key), False))
        else:
            block.append(("check", _verify(*rng.choice(check_warm)), True))
        for name in rng.sample(names, 2):
            block.append(("refute", {"command": "refute", "candidate": name},
                          False))
        for name in rng.sample(names, 2):
            block.append(("fuzz", {"command": "fuzz", "candidate": name,
                                   "seed": rng.randrange(1 << 30),
                                   "budget": FUZZ_BUDGET}, False))
        rng.shuffle(block)
        # Keys first seen in this block are hits for the blocks after it.
        for kind, request, hit in block:
            if kind.startswith("explore") and not hit:
                warm.add((request["n"], tuple(request["inputs"])))
            if kind == "check" and not hit:
                check_warm.append((request["n"], request["symmetry"]))
        commands.extend(block)
    return prewarm, commands


def argv_for(request: Dict[str, object], cache_dir: str) -> List[str]:
    """The ``repro`` CLI arguments that ask ``request``."""
    command = request["command"]
    if command == "explore":
        args = ["explore", "--n", str(request["n"]), "--inputs",
                ",".join(str(v) for v in request["inputs"]),
                "--cache", "--cache-dir", cache_dir]
    elif command == "verify":
        args = ["check-algorithm2", "--n", str(request["n"]),
                "--cache", "--cache-dir", cache_dir]
        if request["symmetry"]:
            args.append("--symmetry")
    elif command == "refute":
        args = ["refute", "--candidate", str(request["candidate"])]
    else:
        args = ["fuzz", "--candidate", str(request["candidate"]),
                "--seed", str(request["seed"]),
                "--budget", str(request["budget"])]
    return args + ["--format", "json"]


def _prewarm(ctx, prewarm, name: str) -> Tuple[Tuple[float, float], str]:
    """Pre-warm fresh cache directories; returns
    ``harness.timed_setups``'s pair and the last directory."""
    dirs: List[str] = []

    def start() -> float:
        dirs.append(ctx.rundir.fresh(f"{name}-{len(dirs)}"))
        payloads = [dict(p, options={"cache": True, "cache_dir": dirs[-1]})
                    for p in prewarm]
        return harness.time_fresh_processes(
            [sys.executable, "-c", _PREWARM, json.dumps(payloads)], 1,
            cwd=ctx.rundir.path)[0]

    setup = harness.timed_setups(start, SETUP_STARTS, ctx.rundir.path)
    return setup, dirs[-1]


def _run_list(ctx, commands, runs, floors=None):
    """Run every command once per ``(launcher, cache_dir)`` in ``runs``,
    alternating between them command by command, so a drift in machine
    speed hits each the same. With a ``floors`` list, a bare interpreter
    start is timed before each command and appended to it. Returns, per
    run, (latencies, outputs, spawn times) and the number of failed
    commands."""
    results = [([], [], []) for _ in runs]
    failures = 0
    for kind, request, _hit in commands:
        if floors is not None:
            floors.append(harness.bare_start_s(ctx.rundir.path))
        for (launcher, cache_dir), (latencies, outputs, spawns) in zip(
                runs, results):
            argv = launcher + argv_for(request, cache_dir)
            started = clock()
            done = subprocess.run(argv, cwd=ctx.rundir.path,
                                  capture_output=True)
            latencies.append(clock() - started)
            spawns.append(started)
            outputs.append(done.stdout)
            ok = done.returncode == 0
            if ok:
                try:
                    ok = json.loads(done.stdout)["status"] == "ok"
                except (ValueError, KeyError):
                    ok = False
            if not ok:
                failures += 1
                print(f"  FAILED {kind}: exit {done.returncode} "
                      f"{done.stderr.decode()[-300:]}", file=sys.stderr)
    return results, failures


def _check(ctx, commands, outputs, indices) -> int:
    """Compare sampled outputs with direct answers in a matching cache
    state (a fresh cache for a miss, a cache holding the key for a hit)."""
    from repro.api import execute, request_from_dict

    mismatches = 0
    for index in indices:
        kind, request, hit = commands[index]
        payload = dict(request)
        if kind != "refute" and kind != "fuzz":
            payload["options"] = {"cache": True,
                                  "cache_dir": ctx.rundir.fresh("ref-cache")}
            if hit:
                execute(request_from_dict(payload))
        expected = (execute(request_from_dict(payload)).to_json() + "\n")
        if outputs[index] != expected.encode("utf-8"):
            mismatches += 1
            print(f"  MISMATCH {kind} {request}", file=sys.stderr)
    return mismatches


def run(ctx) -> dict:
    from repro.protocols.candidates import all_candidates

    names = [candidate.name for candidate in all_candidates()]
    prewarm, commands = plan(ctx.seed, BLOCKS, names)
    checked = sorted(random.Random(ctx.seed).sample(range(len(commands)),
                                                    CHECKED))
    plain = [sys.executable, "-m", "repro"]
    if ctx.trace:
        return _run_traced(ctx, prewarm, commands, checked, plain)

    setup, cache_dir = _prewarm(ctx, prewarm, "cache")
    floors: List[float] = []
    [(raw, outputs, _)], failures = _run_list(
        ctx, commands, [(plain, cache_dir)], floors)
    peak = harness.peak_rss_mb()
    mismatches = _check(ctx, commands, outputs, checked)
    latencies = [harness.at_reference_speed(t, floors) for t in raw]
    blocks = [sum(latencies[i:i + BLOCK])
              for i in range(0, len(latencies), BLOCK)]
    metrics = {
        "setup_s": metric(setup[0], "s"),
        "wall_s": metric(harness.median(blocks), "s"),
        "p50_ms": metric(1000 * harness.percentile(latencies, 0.50), "ms"),
        "tail_ms": metric(1000 * harness.percentile(latencies, TAIL), "ms"),
        "capacity_rps": metric(len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": metric(peak, "MiB"),
    }
    notes = {
        "commands": len(commands),
        "hits": sum(1 for _, _, hit in commands if hit),
        "tail_percentile": "p80",
        "floor_ms": round(1000 * harness.median(floors), 3),
        "raw_setup_s": round(setup[1], 4),
        "raw_p50_ms": round(1000 * harness.percentile(raw, 0.50), 3),
        "raw_tail_ms": round(1000 * harness.percentile(raw, TAIL), 3),
        "raw_list_wall_s": round(sum(raw), 3),
        "checked": len(checked),
    }
    return {
        "correct": failures == 0 and mismatches == 0,
        "attempted": len(commands) + len(checked),
        "failed": failures + mismatches,
        "metrics": metrics,
        "notes": notes,
    }


def _run_traced(ctx, prewarm, commands, checked, plain) -> dict:
    import layers
    import spans

    _, plain_dir = _prewarm(ctx, prewarm, "cache")
    setup, shim_dir = _prewarm(ctx, prewarm, "shim-cache")
    out_dir = ctx.rundir.fresh("spans")
    shim = [sys.executable, os.path.join(ctx.bench_dir, "shim.py"),
            out_dir, "main"]
    window_start = clock()
    [(untraced, _, _), (latencies, outputs, spawns)], failures = _run_list(
        ctx, commands, [(plain, plain_dir), (shim, shim_dir)])
    window_end = clock()
    mismatches = _check(ctx, commands, outputs, checked)

    records = spans.load(out_dir)
    enters = sorted(r for r in records if r[layers.NAME] == "cli.enter")
    exits = [r for r in records if r[layers.NAME] == "cli.exit"]
    if len(enters) != len(spawns):
        raise BenchError(f"{len(enters)} traced commands of {len(spawns)}")
    for spawned, enter in zip(spawns, enters):
        records.append(["cli.startup", "cli", spawned,
                        enter[layers.T0] - spawned,
                        enter[layers.T0] - spawned, "main", None, None,
                        enter[layers.PID]])
    metrics = layers.summarize(
        records,
        window=(window_start, window_end),
        critical=lambda r: r[layers.ROLE] == "main",
        traced_wall_ms=1000 * sum(latencies),
        untraced_wall_ms=1000 * sum(untraced),
        given={
            "cli.interp_ms": harness.interpreter_floor_ms(ctx.rundir.path),
            "cli.modules": harness.median(
                r[layers.EXTRA]["modules"] for r in exits),
        },
    )
    failed = failures + mismatches
    return {
        "correct": failed == 0,
        "attempted": 2 * len(commands) + len(checked),
        "failed": failed,
        "metrics": metrics,
        "notes": {"commands": len(commands),
                  "setup_s": setup[0],
                  "engine_share": layers.engine_share(metrics)},
    }
