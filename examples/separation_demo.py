#!/usr/bin/env python3
"""The main result, live: O_n vs O'_n (Corollary 6.6).

Reproduces the paper's Section 6 narrative for n = 2:

1. build the pair — O_2 = (3, 2)-PAC and O'_2 = the bundle of
   (n_k, k)-SA objects embodying O_2's set agreement power;
2. show the powers coincide: bound sequences, and the constructive
   solvability grid cell by cell;
3. Lemma 6.4: implement O'_2 from 2-consensus + 2-SA objects and
   linearizability-check the implementation under adversaries;
4. the separation: O_2 solves 3-DAC (via its PAC face + Algorithm 2),
   while every natural 3-DAC algorithm over O'_2's reduction targets
   (2-consensus, registers, 2-SA) fails with a concrete witness —
   the Theorem 4.2 adversary made executable.

Run:  python examples/separation_demo.py
"""

from repro import NPacSpec, op
from repro.analysis import Explorer
from repro.core.power import on_power, on_prime_power
from repro.core.separation import make_on_prime, separation_pair
from repro.objects import SeededOracle
from repro.protocols import (
    DacDecisionTask,
    KSetAgreementTask,
    algorithm2_processes,
    check_implementation,
    on_prime_from_consensus_and_sa,
)
from repro.protocols.candidates import dac_via_consensus, dac_via_sa_arbiter
from repro.protocols.set_agreement import bundle_processes
from repro.runtime import SeededScheduler

N = 2


def banner(title):
    print()
    print("=" * 70)
    print(title)
    print("=" * 70)


def step1_build_pair():
    banner(f"1. The separation pair at hierarchy level n = {N}")
    pair = separation_pair(N, levels=4)
    print(f"O_{N}  = {pair.on.kind}: the ({N + 1},{N})-PAC object "
          f"(deterministic: {pair.on.is_deterministic})")
    print(f"O'_{N} = {pair.on_prime.kind}: bundle of (n_k, k)-SA objects")
    print(f"materialized levels (certified lower bounds): "
          f"{pair.on_prime.levels}")
    return pair


def step2_same_power(pair):
    banner("2. Same set agreement power")
    print(on_power(N).describe(5))
    print(on_prime_power(N).describe(5))
    assert on_power(N).agrees_with(on_prime_power(N), 8)
    print("bound sequences agree on the first 8 components ✓")

    print("\nconstructive grid (model-checked, all schedules):")
    for k in (1, 2):
        count = pair.power[k].lower
        inputs = tuple(range(count))
        task = KSetAgreementTask(count, k, domain=None)
        explorer = Explorer(
            {"OPRIME": make_on_prime(N, levels=4)},
            bundle_processes(inputs, level=k),
        )
        verdict = explorer.check_safety(task, inputs)
        status = "solves" if verdict is None else "FAILS"
        print(f"  O'_{N} level {k}: {k}-set agreement among {count} "
              f"processes -> {status}")
        assert verdict is None


def step3_lemma_6_4():
    banner("3. Lemma 6.4: O'_n from n-consensus + 2-SA (linearizability)")
    impl = on_prime_from_consensus_and_sa(N, levels=3)
    workloads = {
        0: [op("propose", "a", 1), op("propose", "x", 2)],
        1: [op("propose", "b", 2), op("propose", "y", 3)],
        2: [op("propose", "c", 3), op("propose", "z", 1)],
    }
    for seed in range(5):
        verdict, _result = check_implementation(
            impl,
            workloads,
            scheduler=SeededScheduler(seed),
            oracle=SeededOracle(seed),
        )
        assert verdict.ok, seed
    print(f"implementation: {impl.name()}")
    print("linearizable under 5 adversarial schedules x response oracles ✓")


def step4_separation():
    banner(f"4. The separation: {N + 1}-DAC splits the pair")
    inputs = DacDecisionTask.paper_initial_inputs(N + 1)
    task = DacDecisionTask(N + 1)

    # O_n side: its embedded (n+1)-PAC + Algorithm 2 solve (n+1)-DAC.
    explorer = Explorer(
        {"PAC": NPacSpec(N + 1)}, algorithm2_processes(inputs)
    )
    assert explorer.check_safety(task, inputs) is None
    print(f"O_{N} (via its ({N + 1})-PAC face + Algorithm 2): "
          f"solves {N + 1}-DAC over all schedules ✓")

    # O'_n side: by Lemma 6.4 it reduces to n-consensus + 2-SA +
    # registers; Theorem 4.2 says no algorithm over those can solve
    # (n+1)-DAC. Watch the natural candidates fail:
    print(f"\nO'_{N} reduces to {N}-consensus + 2-SA + registers; "
          f"candidate {N + 1}-DAC algorithms over those:")
    for candidate in [
        dac_via_consensus(N, fallback="own"),
        dac_via_consensus(N, fallback="spin"),
        dac_via_sa_arbiter(N),
    ]:
        outcome, witness = Explorer(
            candidate.objects, candidate.processes
        ).find_violation(candidate.task, candidate.inputs)
        assert outcome != "none"
        print(f"  ✗ {candidate.name}")
        if outcome == "safety":
            schedule = " ".join(f"p{e.pid}" for e in witness.schedule)
            print(f"      violating schedule: {schedule}")
            print(f"      violation: {witness.verdict.violations[0]}")
        else:
            print(f"      adversarial loop: prefix {len(witness.prefix)} "
                  f"steps, cycle {len(witness.cycle)} steps, starving "
                  f"processes {sorted(witness.moving)}")

    print(f"\nCorollary 6.6 reproduced at level {N}: same power, "
          f"not equivalent.")


if __name__ == "__main__":
    pair = step1_build_pair()
    step2_same_power(pair)
    step3_lemma_6_4()
    step4_separation()
    print("\nSeparation demo complete.")
