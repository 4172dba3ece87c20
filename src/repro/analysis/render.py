"""Human-readable rendering of runs, witnesses, and configurations.

The explorer's outputs — counterexample schedules, livelocks,
configurations — are the artifacts a user actually reads when a theorem
experiment speaks. These renderers turn them into terse, stable text
(used by the CLI, the examples, and error messages; covered by
``tests/analysis/test_render.py`` so the formats don't drift silently).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .explorer import (
    Configuration,
    Edge,
    Explorer,
    Livelock,
    SafetyCounterexample,
)


def render_schedule(
    explorer: Explorer,
    edges: Sequence[Edge],
    start: Optional[Configuration] = None,
) -> str:
    """Replay ``edges`` from ``start`` and render each step with the
    operation performed and the response received."""
    config = start if start is not None else explorer.initial_configuration()
    lines: List[str] = []
    for index, edge in enumerate(edges):
        automaton = explorer.processes[edge.pid]
        action = automaton.next_action(config.process_states[edge.pid])
        choice = f" [choice {edge.choice}]" if edge.choice else ""
        lines.append(
            f"  {index + 1:>3}. p{edge.pid}: {action} -> "
            f"{edge.response!r}{choice}"
        )
        config = explorer.step(config, edge.pid, edge.choice)
    return "\n".join(lines)


def render_counterexample(
    explorer: Explorer, counterexample: SafetyCounterexample
) -> str:
    """A violating schedule plus the violated properties."""
    parts = ["violating schedule:"]
    parts.append(render_schedule(explorer, counterexample.schedule))
    decisions = counterexample.configuration.decisions()
    if decisions:
        rendered = ", ".join(
            f"p{pid}={value!r}" for pid, value in sorted(decisions.items())
        )
        parts.append(f"  decisions: {rendered}")
    aborted = counterexample.configuration.aborted()
    if aborted:
        parts.append(f"  aborted: {sorted(aborted)}")
    for violation in counterexample.verdict.violations:
        parts.append(f"  violated: {violation}")
    return "\n".join(parts)


def render_livelock(explorer: Explorer, livelock: Livelock) -> str:
    """An adversarial loop: its prefix, its cycle, who starves."""
    parts = [f"prefix ({len(livelock.prefix)} steps):"]
    if livelock.prefix:
        parts.append(render_schedule(explorer, livelock.prefix))
    else:
        parts.append("  (starts at the initial configuration)")
    parts.append(f"cycle ({len(livelock.cycle)} steps, repeats forever):")
    parts.append(
        render_schedule(explorer, livelock.cycle, start=livelock.entry)
    )
    starving = sorted(
        pid
        for pid in livelock.moving
        if livelock.entry.statuses[pid][0] == "running"
    )
    parts.append(f"starving processes: {starving}")
    return "\n".join(parts)
