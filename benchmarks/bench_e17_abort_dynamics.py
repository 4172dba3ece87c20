"""E17 — abort dynamics of the simulated abortable consensus.

The n-DAC/n-PAC design means the distinguished process aborts exactly
when the adversary lands an operation between its propose and decide
(Theorem 3.5's nontriviality, operationalized by Algorithm 2). This
quantitative experiment sweeps the contention dial and regenerates the
figure-like series the design implies:

* abort probability of the distinguished process vs. interference
  intensity — 0 at intensity 0, monotonically rising toward 1;
* mean retries of a non-distinguished process before it decides, vs.
  intensity — bounded at low contention, growing with it.
"""

import pytest

from repro.analysis.properties import audit_dac_run
from repro.core.pac import NPacSpec
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.protocols.tasks import DacDecisionTask
from repro.runtime.system import System
from repro.workloads.interference import InterferenceScheduler

from _report import emit_rows

INTENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)
RUNS_PER_POINT = 60
N = 4
RETRY_STEP_CAP = 400


def sweep_point(intensity: float):
    from repro.runtime.system import ProcessStatus

    task = DacDecisionTask(N)
    inputs = DacDecisionTask.paper_initial_inputs(N)
    aborts = 0
    retry_steps = 0
    decided_runs = 0
    for seed in range(RUNS_PER_POINT):
        system = System(
            {"PAC": NPacSpec(N)}, algorithm2_processes(inputs)
        )
        # Series 1 — attack the distinguished process: one interposition
        # window decides abort-vs-decide, so abort rate ≈ intensity.
        scheduler = InterferenceScheduler(0, intensity, seed=seed)
        system.run(
            scheduler,
            max_steps=8 * N,
            stop_when=lambda s: s.status_of(0) != ProcessStatus.RUNNING,
        )
        history = system.history
        audit = audit_dac_run(task, inputs, history)
        assert audit.ok, audit.safety.violations
        if 0 in history.aborted:
            aborts += 1

        # Series 2 — attack a non-distinguished process with the same
        # dial: every interposition costs it a full retry pair, so its
        # step count to decide follows a geometric law in the
        # intensity, diverging (to the cap) at 1.0 — the starvation the
        # solo-only guarantee permits.
        retry_system = System(
            {"PAC": NPacSpec(N)}, algorithm2_processes(inputs)
        )
        retry_scheduler = InterferenceScheduler(1, intensity, seed=seed)
        retry_system.run(
            retry_scheduler,
            max_steps=RETRY_STEP_CAP,
            stop_when=lambda s: s.status_of(1) != ProcessStatus.RUNNING,
        )
        retry_steps += retry_system.history.steps_by_pid.get(1, 0)
        if 1 in retry_system.history.decisions:
            decided_runs += 1
    abort_rate = aborts / RUNS_PER_POINT
    mean_steps = retry_steps / RUNS_PER_POINT
    return abort_rate, mean_steps, decided_runs


def test_e17_report(benchmark):
    benchmark.pedantic(_e17_report, rounds=1, iterations=1)


def _e17_report():
    rows = []
    rates = []
    retry_curve = []
    for intensity in INTENSITIES:
        abort_rate, mean_steps, decided = sweep_point(intensity)
        rates.append(abort_rate)
        retry_curve.append(mean_steps)
        rows.append(
            (
                f"{intensity:.2f}",
                f"{abort_rate:.2f}",
                f"{mean_steps:.1f} (2 = zero retries)",
                f"{decided}/{RUNS_PER_POINT}",
            )
        )
    emit_rows(
        "E17",
        f"Contention dynamics of Algorithm 2 (n={N}, {RUNS_PER_POINT} runs "
        f"per point): p's abort rate tracks the interference dial; a "
        f"targeted q's retry cost grows geometrically and starves at 1.0",
        ["interference intensity", "p abort rate",
         "targeted-q mean steps", "targeted-q decided"],
        rows,
    )
    # Shape claims: no aborts and no retries at intensity 0; both
    # series (weakly) monotone; saturation at full interference — p
    # always aborts, q never decides (starved at the step cap).
    assert rates[0] == 0.0
    assert rates[-1] >= 0.9
    assert all(b >= a - 0.15 for a, b in zip(rates, rates[1:]))
    assert retry_curve[0] == 2.0
    # At full interference the adversary interposes after every step of
    # q, so q owns half of the capped run and never decides.
    assert retry_curve[-1] >= (RETRY_STEP_CAP / 2) * 0.9
    assert all(b >= a - 2 for a, b in zip(retry_curve, retry_curve[1:]))


def test_e17_bench_sweep_point(benchmark):
    abort_rate, _steps, _decided = benchmark(lambda: sweep_point(0.5))
    assert 0.0 <= abort_rate <= 1.0
