"""Protocol-aware static analysis: the replayability contract, enforced.

The reproduction's value rests on replayable adversarial runs — every
schedule and oracle choice the explorer finds must replay bit-for-bit,
and protocol programs must confine shared state to ``yield
Invoke(...)`` steps the way the model assumes. ``repro.lint`` checks
those invariants with a two-phase engine: per-file AST rules, then
interprocedural rules over the merged project call graph (see
``docs/lint.md`` for the architecture).

=====  ========  ====================================================
Rule   Severity  Invariant
=====  ========  ====================================================
R001   error     determinism: no global RNG, clocks, ``id()``, or
                 raw-set iteration in replay-critical code
R002   error     programs reach shared state only via yield Invoke
R003   warning   no yield-free unbounded loops in protocol programs
R004   error     SequentialSpec transitions are pure
R005   warning   adversaries draw only from constructor-seeded RNGs
R006   error     Scripted* replay classes support strict replay
R007   warning   every ``# repro: noqa`` still suppresses something
R101   error     determinism taint: nondeterministic values tracked
                 through returns/calls into replay-critical roles
R102   error     transitive shared access: programs reaching writes
                 through helper chains
R104   error     transitive spec purity: spec transitions calling
                 impure helpers
R108   error     yield discipline: discarded coroutine calls and
                 dead-yield loops
=====  ========  ====================================================

Run ``python -m repro lint`` (or ``repro-lint``); suppress a single
line with ``# repro: noqa[R00x] justification``. See ``docs/lint.md``.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "engine": (
            "Finding",
            "LintReport",
            "ModuleContext",
            "ProjectRule",
            "Rule",
            "all_rules",
            "lint_paths",
            "register",
        ),
        "sarif": ("render_sarif",),
    },
)
