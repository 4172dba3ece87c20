"""``serve-open``: an open loop against an out-of-process ``repro serve``.

Why: the service path dominates here (parse, fingerprint, submit and
the result LRU, JSON, queue wait, spool tracing). Hits, misses,
evictions and LRU writes all happen, so a gain on hits that costs
misses shows.

The server runs the shipped defaults (process mode, 2 workers, a
256-entry result LRU). This process is the load generator: one asyncio
loop sends seeded Poisson arrivals over ``nproc`` keep-alive
connections, one request in flight per connection, and times every
request from when it was *due*, so a stall also delays the requests
queued behind it.

Keys are Zipf-skewed (s = 1.2) over a universe of 768 small requests,
three times the LRU: all four verify keys (n = 2, 3, with and without
symmetry), one refute per candidate (10), 192 single-candidate fuzz
seeds and 562 explore instances (n = 2..4, inputs over four values,
with and without symmetry). Verify and refute are a few questions each
asked often; explore instances and fuzz seeds are the long tail of
one-off questions that miss the LRU. Ranks are dealt to classes so
that requests split about 50 % explore, 25 % fuzz, 15 % refute and
10 % verify (:data:`CLASS_SHARES`; a run prints the shares it sent as
``class_shares``), the same for every seed.

A run: fresh server starts (``setup_s`` is the median start-to-first
``/v1/healthz`` 200, at reference speed as in ``harness.timed_setups``),
a warm-up that brings the LRU to steady state, an open-loop phase at
:data:`FIXED_RATE` (its latencies from due are printed as
``open_p50_ms`` / ``open_p90_ms`` / ``open_p99_ms``, with the
generator's own lateness), then a closed-loop phase of
:data:`CLOSED_LOOP_REQUESTS` on one connection that always has a
request in flight: ``wall_s`` is its summed latency, ``capacity_rps``
its throughput, and ``p50_ms`` / ``tail_ms`` (p99) its latencies, all
rescaled to reference speed by speed probes run in this process
between blocks of :data:`PROBE_EVERY` requests (``harness.SpeedMeter``;
the raw numbers are printed as notes).

Why the gated numbers come from the closed loop: on a 2-vCPU virtual
machine, open-loop latencies at a low fixed rate depend on how fast
idle vCPUs wake, and moved by up to 2x between runs minutes apart; a
search for the rate where p99 meets a limit moved by 2.8x; and the
throughput with both connections busy, which needs both vCPUs, moved
by 28 % (quartile spread over ten seeds). The open-loop phase's own
length is fixed by its schedule, so its wall time cannot show the
server's speed.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
from typing import Dict, List, Tuple

import harness
from harness import FUZZ_BUDGET, BenchError, clock, metric

NAME = "serve-open"
#: Offered rate of the open-loop phase: about a quarter of the seed
#: code's closed-loop throughput on a 2-vCPU machine (350-550/s), so
#: the queue stays short even when the machine slows.
FIXED_RATE = 100.0
#: 1200 samples leave 12 beyond the p99.
FIXED_REQUESTS = 1200
#: Requests sent back to back, on one connection (10-15 s on a 2-vCPU
#: machine; 50 samples beyond the p99).
CLOSED_LOOP_REQUESTS = 5000
#: Closed-loop answers between two speed probes (200 probes a run).
PROBE_EVERY = 25
#: Round trips to the echo server in one echo probe, and the time they
#: take at reference speed (see :class:`EchoProbe`).
ECHO_ROUND_TRIPS = 10
REFERENCE_ECHO_MS = 2.0
#: The generator sleeps until this long before a request is due, then
#: yields in a loop: epoll rounds sleeps up to whole milliseconds.
SPIN_S = 0.002
WARMUP_REQUESTS = 400
WARMUP_RATE = 2 * FIXED_RATE
LRU_SIZE = 256
UNIVERSE = 3 * LRU_SIZE
ZIPF_S = 1.2
#: Explore inputs range over this many values (n = 2..4, with and
#: without symmetry: 672 distinct instances).
EXPLORE_VALUES = 4
#: A quarter of the universe is fuzz campaigns, the costliest misses
#: (8-35 ms of engine work against 1-9 ms for an explore at n <= 4);
#: every verify and refute key is in it and explore fills the rest.
FUZZ_KEYS = UNIVERSE // 4
#: Target share of requests per class. Verify (n = 2, 3) and refute
#: are a few questions each asked often; explore instances and fuzz
#: seeds are the long tail of one-off questions that miss the LRU.
CLASS_SHARES = {"explore": 0.50, "fuzz": 0.25, "refute": 0.15,
                "verify": 0.10}
SETUP_STARTS = 5
CHECKED_KEYS = 12
#: A run is flagged when the generator's own lateness (an arrival fired
#: after its due time) has a p99 above this share of the measured p99:
#: then the generator, not the server, set the tail.
GENERATOR_LATE_SHARE = 0.25

_LISTENING = re.compile(rb"listening on http://([\d.]+):(\d+)")


# -- keys ------------------------------------------------------------------


def _explore_keys() -> List[Dict[str, object]]:
    return [
        {"command": "explore", "n": n, "inputs": list(inputs),
         "symmetry": sym}
        for n in (2, 3, 4)
        for inputs in itertools.product(range(EXPLORE_VALUES), repeat=n)
        for sym in (False, True)
    ]


def universe(seed: int, names: List[str]) -> List[Dict[str, object]]:
    """The key universe in popularity-rank order (rank 0 hottest).

    Class sizes are fixed; the seed picks which explore inputs and fuzz
    seeds are in it, and which key of a class sits at each of the
    class's ranks.
    """
    rng = random.Random(f"{NAME}:{seed}")
    verify = [{"command": "verify", "n": n, "symmetry": sym}
              for n in (2, 3) for sym in (False, True)]
    refute = [{"command": "refute", "candidate": name} for name in names]
    fuzz_seeds = rng.sample(range(1, 1 << 30), FUZZ_KEYS)
    fuzz = [{"command": "fuzz", "candidate": names[i % len(names)],
             "seed": fuzz_seeds[i], "budget": FUZZ_BUDGET}
            for i in range(FUZZ_KEYS)]
    explore = rng.sample(_explore_keys(),
                         UNIVERSE - len(verify) - len(refute) - FUZZ_KEYS)
    classes = {"explore": explore, "fuzz": fuzz, "refute": refute,
               "verify": verify}
    for keys in classes.values():
        rng.shuffle(keys)
    # Hottest first, rank r goes to the class furthest below its share
    # of the traffic to ranks 0..r, so the class at each rank (and with
    # it each class's share of requests) is the same for every seed.
    weights = zipf_weights()
    ranked: List[Dict[str, object]] = []
    taken = dict.fromkeys(classes, 0)
    got = dict.fromkeys(classes, 0.0)
    offered = 0.0
    for weight in weights:
        offered += weight
        name = max(
            (c for c in CLASS_SHARES if taken[c] < len(classes[c])),
            key=lambda c: CLASS_SHARES[c] * offered - got[c],
        )
        ranked.append(classes[name][taken[name]])
        taken[name] += 1
        got[name] += weight
    return ranked


def zipf_weights() -> List[float]:
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(UNIVERSE)]


def zipf_stream(rng: random.Random, count: int) -> List[int]:
    return rng.choices(range(UNIVERSE), weights=zipf_weights(), k=count)


def poisson_offsets(rng: random.Random, rate: float, count: int) -> List[float]:
    """Poisson arrival times, rescaled so the last one falls at exactly
    ``count / rate``: every seed offers the same mean rate."""
    offsets, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        offsets.append(t)
    scale = count / rate / offsets[-1]
    return [offset * scale for offset in offsets]


# -- server process --------------------------------------------------------


class Server:
    """One ``repro serve`` child on a free port."""

    def __init__(self, argv: List[str], cwd: str) -> None:
        self.started = clock()
        self._stderr = open(os.path.join(cwd, "server-stderr.log"), "ab")
        self.proc = subprocess.Popen(
            argv, cwd=cwd, stdout=subprocess.PIPE, stderr=self._stderr
        )
        line = self.proc.stdout.readline()
        match = _LISTENING.search(line)
        if not match:
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1).decode(), int(match.group(2))
        self.ready_s = self._wait_healthy() - self.started

    def _wait_healthy(self) -> float:
        deadline = self.started + 60
        while clock() < deadline:
            try:
                status, _, _ = asyncio.run(self.get("/v1/healthz"))
                if status == 200:
                    return clock()
            except OSError:
                pass
        raise BenchError("server never answered /v1/healthz")

    async def get(self, path: str):
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
                         f"Connection: close\r\n\r\n".encode())
            return await _read_response(reader)
        finally:
            writer.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


async def _read_response(reader) -> Tuple[int, Dict[str, str], bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


# -- reference for the service path ----------------------------------------

_ECHO_SERVER = """
import asyncio, json

async def handle(reader, writer):
    while True:
        line = await reader.readline()
        if not line:
            break
        writer.write(json.dumps(json.loads(line), sort_keys=True).encode()
                     + b"\\n")
        await writer.drain()
    writer.close()

async def main():
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    await server.serve_forever()

asyncio.run(main())
"""


class EchoProbe:
    """Round trips to a stdlib asyncio JSON echo server in a child
    process: the reference for cached answers.

    A cached answer is all service path: a loopback round trip, an
    asyncio server waking, parsing JSON and writing JSON back. Those
    slow down on a shared virtual machine (cross-process wake-ups most)
    by more than the compute probe of ``harness.SpeedMeter`` does, so
    cached answers are rescaled by this probe instead. The echo server
    does not touch the program.
    """

    #: About the size of a cached answer's body.
    PAYLOAD = (json.dumps({"command": "echo", "data": list(range(300))})
               + "\n").encode()

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _ECHO_SERVER], stdout=subprocess.PIPE)
        try:
            port = int(self._proc.stdout.readline())
            self._sock = socket.create_connection(("127.0.0.1", port))
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._file = self._sock.makefile("rb")
        except (ValueError, OSError):
            self.close()
            raise BenchError("the echo server did not start")

    def probe(self) -> None:
        started = clock()
        for _ in range(ECHO_ROUND_TRIPS):
            self._sock.sendall(self.PAYLOAD)
            if len(self._file.readline()) != len(self.PAYLOAD):
                raise BenchError("the echo server answered wrongly")
        self.samples.append(clock() - started)

    def close(self) -> None:
        for name in ("_file", "_sock"):
            if hasattr(self, name):
                getattr(self, name).close()
        if self._proc.poll() is None:
            self._proc.terminate()
            self._proc.wait()
        self._proc.stdout.close()


# -- load generator --------------------------------------------------------


class Phase:
    """Outcome of sending one schedule."""

    def __init__(self, count: int) -> None:
        self.latency = [0.0] * count
        self.rtt = [0.0] * count
        self.status = [0] * count
        self.disposition = [""] * count
        self.job = [""] * count
        self.body: List[bytes] = [b""] * count
        self.lateness: List[float] = []
        self.first_due = 0.0
        self.last_due = 0.0
        self.last_done = 0.0


async def _send(host, port, bodies, offsets, connections,
                after=None) -> Phase:
    """Send ``bodies`` at ``offsets`` over ``connections`` keep-alive
    connections; ``after(index)``, if given, runs once each answer is
    in, before that connection sends again."""
    phase = Phase(len(bodies))
    queue: asyncio.Queue = asyncio.Queue()

    async def worker() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                index, due = item
                body = bodies[index]
                sent = clock()
                writer.write(
                    b"POST /v1/jobs?wait=1 HTTP/1.1\r\nHost: bench\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body
                )
                status, headers, payload = await _read_response(reader)
                done = clock()
                phase.latency[index] = done - due
                phase.rtt[index] = done - sent
                phase.status[index] = status
                phase.disposition[index] = headers.get(
                    "x-repro-disposition", "")
                phase.job[index] = headers.get("x-repro-job", "")
                phase.last_done = max(phase.last_done, done)
                phase.body[index] = payload
                if after is not None:
                    after(index)
        finally:
            writer.close()

    workers = [asyncio.ensure_future(worker()) for _ in range(connections)]
    start = clock() + 0.02
    phase.first_due = start + offsets[0]
    phase.last_due = start + offsets[-1]
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - clock()
        if delay > SPIN_S:
            await asyncio.sleep(delay - SPIN_S)
        while clock() < due:
            await asyncio.sleep(0)
        phase.lateness.append(clock() - due)
        queue.put_nowait((index, due))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return phase


def _payloads(keys, stream) -> List[bytes]:
    return [json.dumps(keys[k], sort_keys=True).encode() for k in stream]


def _run_phase(server, keys, stream, rate, rng) -> Phase:
    offsets = poisson_offsets(rng, rate, len(stream))
    return asyncio.run(_send(server.host, server.port,
                             _payloads(keys, stream), offsets,
                             os.cpu_count() or 1))


def _failures(phase: Phase) -> int:
    """Non-200 responses and bodies whose Report status is not ok."""
    bad = 0
    for status, body in zip(phase.status, phase.body):
        report = json.loads(body)
        if status != 200 or report.get("status") != "ok":
            bad += 1
            print(f"  FAILED HTTP {status}: {report.get('summary')!r} "
                  f"{report.get('data')}", file=sys.stderr)
    return bad


def closed_loop(server, keys, rng, meter):
    """One client that always has a request in flight asks
    :data:`CLOSED_LOOP_REQUESTS` keys. Returns the phase, the keys,
    each answer's latency (``rtt``) at reference speed and the
    :class:`EchoProbe`.

    All requests are due at once on one keep-alive connection, so the
    next request goes out the moment the last answer arrives, except
    that a probe of the speed ``meter`` (``harness.SpeedMeter``) and an
    echo probe run, untimed, after every :data:`PROBE_EVERY` answers.
    A cached answer is rescaled by the echo probes around it, any other
    (an engine run in a pool worker) by the speed meter's.
    """
    stream = zipf_stream(rng, CLOSED_LOOP_REQUESTS)
    echo = EchoProbe()
    try:
        def after(index: int) -> None:
            if index % PROBE_EVERY == PROBE_EVERY - 1:
                meter.probe()
                echo.probe()

        phase = asyncio.run(_send(server.host, server.port,
                                  _payloads(keys, stream),
                                  [0.0] * len(stream), 1, after))
    finally:
        echo.close()
    engine = meter.factors()
    service = harness.local_factors(echo.samples, REFERENCE_ECHO_MS)
    scaled = []
    for i, rtt in enumerate(phase.rtt):
        slot = min(i // PROBE_EVERY, len(engine) - 1)
        cached = phase.disposition[i] == "cached"
        scaled.append(rtt * (service if cached else engine)[slot])
    return phase, stream, scaled, echo


def _shares(keys, *streams) -> Dict[str, float]:
    """Each class's share of the requests sent."""
    sent = [keys[k]["command"] for stream in streams for k in stream]
    return {c: round(sent.count(c) / len(sent), 4) for c in CLASS_SHARES}


# -- the workload ----------------------------------------------------------


def _start(ctx, launcher) -> Tuple[Tuple[float, float], Server]:
    """Fresh starts, each stopping the one before; the last is left
    running. Returns ``harness.timed_setups``'s pair and the server."""
    started: List[Server] = []

    def start() -> float:
        if started:
            started.pop().stop()
        spool = ctx.rundir.fresh("spool")
        argv = launcher + ["serve", "--port", "0", "--spool-dir", spool]
        started.append(Server(argv, ctx.rundir.path))
        return started[-1].ready_s

    try:
        setup = harness.timed_setups(start, SETUP_STARTS, ctx.rundir.path)
    except BaseException:
        for server in started:
            server.stop()
        raise
    return setup, started[-1]


def _references(keys, checked) -> Dict[int, bytes]:
    """Direct ``repro.api.execute`` answers for the checked keys."""
    from repro.api import execute, request_from_dict

    return {
        k: (execute(request_from_dict(keys[k])).to_json() + "\n").encode()
        for k in checked
    }


def _streams(seed: int):
    rng = random.Random(f"{NAME}:stream:{seed}")
    warm = zipf_stream(rng, WARMUP_REQUESTS)
    fixed = zipf_stream(rng, FIXED_REQUESTS)
    return rng, warm, fixed


def run(ctx) -> dict:
    meter = None if ctx.trace else harness.SpeedMeter()
    from repro.protocols.candidates import all_candidates

    keys = universe(ctx.seed, [c.name for c in all_candidates()])
    checked = sorted(random.Random(ctx.seed).sample(range(64), CHECKED_KEYS))
    references = _references(keys, checked)
    plain = [sys.executable, "-m", "repro"]
    if ctx.trace:
        return _run_traced(ctx, keys, checked, references, plain)

    setup, server = _start(ctx, plain)
    try:
        rng, warm, fixed = _streams(ctx.seed)
        _run_phase(server, keys, warm, WARMUP_RATE, rng)
        phase = _run_phase(server, keys, fixed, FIXED_RATE, rng)
        full, closed, latencies, echo = closed_loop(server, keys, rng, meter)
        live_kb = harness.live_tree_peak_kb(server.proc.pid)
    finally:
        server.stop()
    peak = harness.peak_rss_mb(live_kb, meter)

    failures = _failures(phase) + _failures(full)
    mismatches = sum(
        1 for i, body in enumerate(phase.body)
        if fixed[i] in references and body != references[fixed[i]]
    )
    lateness_p99 = 1000 * harness.percentile(phase.lateness, 0.99)
    open_p99 = 1000 * harness.percentile(phase.latency, 0.99)
    dispositions = {d: phase.disposition.count(d)
                    for d in ("cached", "coalesced", "new")}
    wall = sum(latencies)
    metrics = {
        "setup_s": metric(setup[0], "s"),
        "wall_s": metric(wall, "s"),
        "p50_ms": metric(1000 * harness.percentile(latencies, 0.50), "ms"),
        "tail_ms": metric(1000 * harness.percentile(latencies, 0.99), "ms"),
        "capacity_rps": metric(len(latencies) / wall, "1/s"),
        "peak_rss_mb": metric(peak, "MiB"),
    }
    notes = {
        "fixed_rate_rps": FIXED_RATE,
        "tail_percentile": "p99, closed loop",
        "open_p50_ms": round(1000 * harness.percentile(phase.latency, 0.5), 3),
        "open_p90_ms": round(1000 * harness.percentile(phase.latency, 0.9), 3),
        "open_p99_ms": round(open_p99, 3),
        "samples": f"{len(fixed)} at the fixed rate, {len(full.rtt)} "
                   f"closed loop",
        "dispositions": dispositions,
        "closed_dispositions": {d: full.disposition.count(d)
                                for d in ("cached", "coalesced", "new")},
        "class_shares": _shares(keys, fixed, closed),
        "generator_late_p99_ms": round(lateness_p99, 3),
        "generator_behind": lateness_p99 > GENERATOR_LATE_SHARE * open_p99,
        "checked_responses": sum(1 for k in fixed if k in references),
        "raw_setup_s": round(setup[1], 4),
        "probe_ms": round(1000 * harness.median(meter.samples), 4),
        "echo_probe_ms": round(1000 * harness.median(echo.samples), 4),
        "raw_wall_s": round(sum(full.rtt), 4),
        "raw_p50_ms": round(1000 * harness.percentile(full.rtt, 0.50), 4),
        "raw_p99_ms": round(1000 * harness.percentile(full.rtt, 0.99), 4),
    }
    return {
        "correct": failures == 0 and mismatches == 0,
        "attempted": len(fixed) + len(full.rtt),
        "failed": failures + mismatches,
        "metrics": metrics,
        "notes": notes,
    }


def _metrics_counters(server) -> Dict[str, int]:
    _, _, body = asyncio.run(server.get("/v1/metrics"))
    return json.loads(body)["result_cache"]


def _traced_phase(ctx, keys, launcher):
    """Start a server, warm it, run the fixed-rate phase; stop it."""
    _, server = _start(ctx, launcher)
    try:
        rng, warm, fixed = _streams(ctx.seed)
        _run_phase(server, keys, warm, WARMUP_RATE, rng)
        before = _metrics_counters(server)
        phase = _run_phase(server, keys, fixed, FIXED_RATE, rng)
        after = _metrics_counters(server)
    finally:
        server.stop()
    return phase, fixed, after["evictions"] - before["evictions"]


def _run_traced(ctx, keys, checked, references, plain) -> dict:
    import layers
    import spans

    untraced, _, _ = _traced_phase(ctx, keys, plain)
    out_dir = ctx.rundir.fresh("spans")
    shim = [sys.executable, os.path.join(ctx.bench_dir, "shim.py"),
            out_dir, "server"]
    phase, fixed, evictions = _traced_phase(ctx, keys, shim)
    records = spans.load(out_dir)

    submits = {}
    for r in records:
        if r[layers.NAME] == "serve.submit" and r[layers.EXTRA]:
            submits[r[layers.EXTRA].get("job")] = r
    for r in list(records):
        submit = submits.get(r[layers.RID])
        if r[layers.NAME] == "serve.worker" and submit is not None:
            queued = submit[layers.T0] + submit[layers.DUR]
            wait = r[layers.T0] - queued
            records.append(["serve.queue_wait", "serve", queued, wait, wait,
                            "server", r[layers.RID], None, submit[layers.PID]])
    http = [
        phase.rtt[i] - submits[phase.job[i]][layers.DUR]
        for i in range(len(fixed))
        if phase.disposition[i] == "cached" and phase.job[i] in submits
    ]
    exits = [r for r in records if r[layers.NAME] == "cli.exit"]
    imports = [r for r in records if r[layers.NAME] == "cli.import"]
    count = len(fixed)
    given = {
        "cli.interp_ms": harness.interpreter_floor_ms(ctx.rundir.path),
        "cli.import_ms": 1000 * harness.median(r[layers.DUR] for r in imports),
        "cli.modules": harness.median(r[layers.EXTRA]["modules"] for r in exits),
        "serve.http_us": 1e6 * sum(http) / max(1, len(http)),
        "serve.rejected": phase.status.count(429),
        "serve.lru_evictions": evictions,
    }
    for disposition in ("cached", "coalesced", "new"):
        given[f"serve.{disposition}"] = phase.disposition.count(disposition)
    given["serve.hit_ratio"] = given["serve.cached"] / count
    metrics = layers.summarize(
        records,
        window=(phase.first_due, phase.last_done),
        critical=lambda r: r[layers.ROLE] in ("server", "job")
        and r[layers.LAYER] != "cli",
        traced_wall_ms=1000 * sum(phase.rtt),
        untraced_wall_ms=1000 * sum(untraced.rtt),
        given=given,
    )
    failures = _failures(phase) + _failures(untraced)
    mismatches = sum(
        1 for i, body in enumerate(phase.body)
        if fixed[i] in references and body != references[fixed[i]]
    )
    return {
        "correct": failures == 0 and mismatches == 0,
        "attempted": 2 * count,
        "failed": failures + mismatches,
        "metrics": metrics,
        "notes": {"fixed_rate_rps": FIXED_RATE, "samples": count,
                  "engine_share": layers.engine_share(metrics),
                  "class_shares": _shares(keys, fixed)},
    }
