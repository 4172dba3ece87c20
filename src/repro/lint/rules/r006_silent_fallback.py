"""R006 — silent fallback: scripted replays must be able to fail loudly.

Scope: classes whose name starts with ``Scripted`` and that define a
``choose`` method — the replay half of the adversary. A scripted replay
that degrades silently past the end of its script (or on an
out-of-range entry) turns a counterexample into a *different run* while
still reporting success; this is precisely how replayed evidence rots.
The contract:

* the constructor must accept a ``strict`` flag, and
* the class must contain at least one ``raise`` (the strict path), so a
  diverging replay can abort instead of improvising.

The historical ``ScriptedOracle`` fell back to outcome 0 forever — this
rule's first real catch, fixed alongside its introduction (the oracle
now records ``fallbacks``/``diverged`` and raises
``ReplayDivergenceError`` in strict mode).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, ModuleContext, Rule, register


@register
class SilentFallbackRule(Rule):
    rule_id = "R006"
    severity = "error"
    title = "Scripted* replay classes support strict (loud) replay"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for cls in module.classes():
            if not cls.name.startswith("Scripted"):
                continue
            methods = {
                statement.name: statement
                for statement in cls.body
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "choose" not in methods:
                continue
            init = methods.get("__init__")
            if init is not None and not self._has_strict_param(init):
                yield module.finding(
                    self,
                    init,
                    f"{cls.name}.__init__ has no 'strict' parameter: a "
                    f"replay consumer cannot opt into loud divergence "
                    f"detection",
                )
            if not self._has_raise(cls):
                yield module.finding(
                    self,
                    cls,
                    f"{cls.name} never raises: exhausted or out-of-range "
                    f"scripts degrade silently, so a replayed counterexample "
                    f"can diverge without anyone noticing",
                )

    @staticmethod
    def _has_strict_param(init: ast.FunctionDef) -> bool:
        names = {arg.arg for arg in init.args.args}
        names.update(arg.arg for arg in init.args.kwonlyargs)
        return "strict" in names

    @staticmethod
    def _has_raise(cls: ast.ClassDef) -> bool:
        return any(isinstance(node, ast.Raise) for node in ast.walk(cls))
