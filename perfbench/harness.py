"""Shared plumbing for the workloads: hermetic environment, private
directories, percentiles, peak memory, run labels and the result line.

Nothing here imports ``repro``; the workloads decide when the program
is loaded, so that its import cost lands where it is measured.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Children always run with this hash seed, so dict and set iteration
#: (and the work it drives) repeats exactly from run to run.
HASH_SEED = "0"

#: Minimum number of samples that must lie beyond any percentile we
#: report; a percentile with fewer is one or two outliers, not a tail.
MIN_BEYOND = 10

clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes

#: Fuzz campaigns this long find every candidate's expected failure
#: (0 misses in 2656 seeded campaigns; at 60, one seed of several
#: thousand missed), so every answer is a Report with status ok.
FUZZ_BUDGET = 100

#: Bare-interpreter start-up time (``python -c pass``) that start-up-bound
#: times are scaled to; see :func:`at_reference_speed`.
REFERENCE_FLOOR_MS = 50.0
#: Bare starts timed before each fresh set-up (:func:`timed_setups`).
FLOORS_PER_SETUP = 4
#: Time of one speed probe (on two CPUs) that in-process and server
#: times are scaled to; see :class:`SpeedMeter`.
REFERENCE_PROBE_MS = 8.0


class BenchError(Exception):
    """The benchmark cannot run or produced a wrong answer."""


def source_root(checkout: str) -> str:
    """The ``src`` directory holding the ``repro`` package, or raise."""
    src = os.path.join(checkout, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise BenchError(f"no repro source tree under {checkout!r}")
    return src


def scrub_environment(src: str) -> None:
    """Make this process's environment hermetic; children inherit it.

    Every ``REPRO_*`` knob (kernel, tables, threads, trace, profile,
    cache dir, perf scale, ...) would change what the program does, so
    none may leak in from the caller.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.environ["PYTHONPATH"] = src
    for name in ("PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE"):
        os.environ.pop(name, None)


class RunDir:
    """A private scratch directory for one run, removed at the end.

    Caches, spool files, span dumps and ``TMPDIR`` all live here, so a
    run never touches the checkout's own files and never sees another
    run's state.
    """

    def __init__(self, checkout: str, tag: str) -> None:
        base = os.path.join(checkout, ".perfbench-tmp")
        os.makedirs(base, exist_ok=True)
        self.path = os.path.join(base, f"{tag}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        os.environ["TMPDIR"] = self.sub("tmp")

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def fresh(self, name: str) -> str:
        """An empty directory under ``name`` (wiped if it existed)."""
        path = os.path.join(self.path, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass  # another run still owns a sibling directory


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1), refusing thin tails.

    Linear interpolation between closest ranks. Raises when fewer than
    :data:`MIN_BEYOND` samples lie above the quantile.
    """
    n = len(samples)
    beyond = n * (1.0 - q)
    if beyond < MIN_BEYOND - 1e-9:
        raise BenchError(
            f"percentile {q:.2f} of {n} samples has only {beyond:.1f} "
            f"beyond it (need {MIN_BEYOND})"
        )
    ordered = sorted(samples)
    pos = q * (n - 1)
    low = int(pos)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def time_fresh_processes(
    argv: Sequence[str], repeats: int, *, cwd: str, reported: bool = False
) -> List[float]:
    """Start ``argv`` ``repeats`` times; seconds per start.

    With ``reported`` the child prints its own duration (a float) as
    the last line of stdout, and that is the sample; otherwise the
    sample is spawn-to-exit wall time.
    """
    samples = []
    for _ in range(repeats):
        started = clock()
        done = subprocess.run(
            list(argv), cwd=cwd, capture_output=True, text=True
        )
        elapsed = clock() - started
        if done.returncode != 0:
            raise BenchError(
                f"{' '.join(argv[:4])} exited {done.returncode}: "
                f"{done.stderr.strip()[-400:]}"
            )
        samples.append(
            float(done.stdout.strip().splitlines()[-1]) if reported else elapsed
        )
    return samples


def bare_start_s(cwd: str) -> float:
    """Spawn-to-exit seconds of one bare ``python -c pass``."""
    return time_fresh_processes([sys.executable, "-c", "pass"], 1, cwd=cwd)[0]


def interpreter_floor_ms(cwd: str, repeats: int = 5) -> float:
    """Median spawn-to-exit time of a bare ``python -c pass``."""
    return 1000 * median(bare_start_s(cwd) for _ in range(repeats))


def at_reference_speed(seconds: float, floors: Sequence[float]) -> float:
    """``seconds`` rescaled to a machine whose bare interpreter starts in
    :data:`REFERENCE_FLOOR_MS`.

    ``floors`` are bare-interpreter start times (seconds) measured
    interleaved with the work. On a shared virtual machine the speed of
    start-up-bound work (fresh processes that import a package) swings
    by up to 1.5x between minutes, and a bare start swings with it. The
    floor does not depend on the program, so a change to the program
    moves the rescaled time exactly as much as the raw one.
    """
    return seconds * REFERENCE_FLOOR_MS / (1000 * median(floors))


def timed_setups(start: Callable[[], float], repeats: int,
                 cwd: str) -> Tuple[float, float]:
    """Call ``start`` (a fresh set-up; returns its seconds) ``repeats``
    times, with :data:`FLOORS_PER_SETUP` bare starts timed before each.
    Returns the median at reference speed, then the raw median."""
    times: List[float] = []
    floors: List[float] = []
    for _ in range(repeats):
        floors += [bare_start_s(cwd) for _ in range(FLOORS_PER_SETUP)]
        times.append(start())
    raw = median(times)
    return at_reference_speed(raw, floors), raw


#: Links in the speed probe's chain: a dict of big ints, about 40 MiB,
#: far larger than a core's caches.
PROBE_KEYS = 1 << 19
#: Links followed by one probe on one CPU (about 2 ms on a 2-vCPU
#: virtual machine).
PROBE_STEPS = 10000


def _search() -> int:
    """A small compute-bound search: breadth-first over the 243 states
    of five digits in 0..2, each state a tuple interned in a dict (about
    2 ms on a 2-vCPU virtual machine; it fits in a core's caches)."""
    width, values = 5, 3
    start = (0,) * width
    index = {start: 0}
    frontier = [start]
    while frontier:
        following = []
        for state in frontier:
            for i in range(width):
                head, tail = state[:i], state[i + 1:]
                for value in range(values):
                    if value != state[i]:
                        successor = head + (value,) + tail
                        if successor not in index:
                            index[successor] = len(index)
                            following.append(successor)
        frontier = following
    return len(index)


class SpeedMeter:
    """Times a fixed probe interleaved with in-process or server work,
    to rescale that work to reference speed.

    On a shared virtual machine the speed of interpreter-bound work
    swings by 10-40 % between minutes and by up to 1.8x between hours,
    and CPU time swings with it (noisy neighbours, not steal). A probe
    run in this process between requests slows down with the requests
    around it, so ``time * REFERENCE_PROBE_MS / (local probe time)`` is
    a time that a change to the program moves exactly as much as the
    raw one, while most of the machine's swings cancel.

    The slow-downs differ in kind and by vCPU: sometimes compute-bound
    code slows most (another guest on the same physical core), sometimes
    memory-bound code (another guest thrashing the shared cache), and
    one vCPU can be slow while the other is not. So one probe is, on
    each CPU this process may use in turn (pinned there for the probe),
    a small compute-bound search (:func:`_search`) and
    :data:`PROBE_STEPS` links followed through a fixed dict far larger
    than a core's caches; its time is the sum. Each alone tracked the
    engine's speed worse in trials (see ``README.md``).

    The chain's ints and dict are not tracked by the garbage collector,
    so the program's collections do not grow. Build the meter before the
    program runs: its memory, :attr:`footprint_kb`, is then the growth
    of this process's RSS, which :func:`peak_rss_mb` takes off again,
    and the building's own passing peak is forgotten
    (:func:`reset_peak`).
    """

    #: Probes on each side of a request that set its local speed.
    WINDOW = 5

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._cpus = sorted(os.sched_getaffinity(0))
        before = _status_kb(os.getpid(), "VmRSS")
        order = list(range(PROBE_KEYS))
        random.Random(0).shuffle(order)
        spread = [k * 1000003 % (1 << 40) for k in order]
        self._chain = {spread[i - 1]: spread[i] for i in range(PROBE_KEYS)}
        self._first = spread[0]
        del order, spread
        self.footprint_kb = max(0, _status_kb(os.getpid(), "VmRSS") - before)
        reset_peak()

    def probe(self) -> None:
        chain, total = self._chain, 0.0
        try:
            for cpu in self._cpus:
                os.sched_setaffinity(0, (cpu,))
                link = self._first
                started = clock()
                _search()
                for _ in range(PROBE_STEPS):
                    link = chain[link]
                total += clock() - started
        finally:
            os.sched_setaffinity(0, self._cpus)
        self.samples.append(total)

    def factors(self) -> List[float]:
        return local_factors(self.samples, REFERENCE_PROBE_MS)


def local_factors(samples: Sequence[float], reference_ms: float,
                  window: int = SpeedMeter.WINDOW) -> List[float]:
    """Per probe: ``reference_ms`` over the median probe time (seconds)
    in a window of ``2 * window + 1`` probes centred on it."""
    count = len(samples)
    if count == 0:
        raise BenchError("no speed probe was taken")
    return [
        reference_ms / (1000 * median(
            samples[max(0, i - window):min(count, i + window + 1)]))
        for i in range(count)
    ]


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (Linux ``/proc`` walk)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for child in children.get(parent, ()):
            found.append(child)
            frontier.append(child)
    return found


def live_tree_peak_kb(pid: int) -> int:
    """Summed peak RSS (VmHWM) of ``pid`` and its live descendants."""
    return sum(_status_kb(p, "VmHWM") for p in [pid] + descendants(pid))


def reset_peak() -> None:
    """Start this process's peak RSS (``VmHWM``) afresh from its
    present RSS (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb(live_children_kb: Optional[int] = None,
                meter: Optional[SpeedMeter] = None) -> float:
    """Peak memory of the benchmark side, in MiB.

    This process's own peak (less a speed ``meter``'s chain) plus either
    the peaks of the children still running when the timed window
    closed (``live_children_kb``: the server and its pool in
    ``serve-open``, alive together), or else the largest child already
    reaped (``RUSAGE_CHILDREN``: one pool worker or CLI process at a
    time).
    """
    own = _status_kb(os.getpid(), "VmHWM")
    if meter is not None:
        own -= meter.footprint_kb
    if live_children_kb is None:
        live_children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + live_children_kb) / 1024.0


def labels() -> Dict[str, object]:
    """What a result must agree on before it may be compared."""
    from repro.analysis.kernel import select

    return {
        "kernel_backend": select(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(
    workload: str,
    seed: int,
    trace: bool,
    run_labels: Dict[str, object],
    notes: Dict[str, object],
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Dict[str, object]],
    out: Optional[str] = None,
) -> None:
    """Print the human-readable lines, then the one-line JSON result."""
    print(f"workload {workload} seed {seed} trace {int(trace)}")
    for key, value in sorted(run_labels.items()):
        print(f"  label {key} = {value}")
    for key, value in sorted(notes.items()):
        print(f"  note {key} = {value}")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(
        f"  correct={correct} attempted={attempted} failed={failed} "
        f"error_rate={failed / max(1, attempted):.6g}"
    )
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    if out:
        record = dict(result, workload=workload, seed=seed,
                      trace=bool(trace), labels=run_labels, notes=notes)
        with open(out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)
