"""Phase 1 of the two-phase lint engine: per-file semantic indexing.

The interprocedural rules (R101/R102/R104/R108) need to see *through*
helper calls, which a per-file AST walk cannot. Instead of shipping
ASTs around, each file is distilled once into a :class:`FileIndex` — a
plain-data summary of everything the project phase needs:

* every function with its call sites (who it calls, whether the result
  is discarded or delegated via ``yield from``);
* **seeds**: the line-level facts the taint/impurity fixpoints grow
  from — nondeterminism sources (unseeded ``random.*``, clocks,
  ``id()``), I/O calls, shared-state writes, ``self`` mutations;
* a local dataflow summary saying whether the function's *return
  value* is derived from a seed or from the return value of a callee
  (tracked through assignments, loops and augmented assignments);
* classes (bases + methods), the import map for cross-module call
  resolution, and the file's ``# repro: noqa`` lines.

Because a :class:`FileIndex` is pure data it pickles cleanly, which is
what lets the engine fan indexing over
:class:`repro.analysis.parallel.VerificationPool` workers and store
entries in the content-addressed cache — one sha256 fingerprint per
file (content + engine salt), so a warm re-lint re-indexes only the
files that actually changed.

Seeds honour suppressions at the *source* line: a clock read carrying
``# repro: noqa[R001]`` is a sanctioned nondeterminism source, so it
must not taint its callers either — the suppression families below map
each seed kind to the per-file and project rules that share its escape
hatch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .astutil import (
    dotted_call,
    is_program_coroutine,
    local_bindings,
    root_name,
    walk_function_body,
)

#: Bumped whenever the index layout or seed semantics change; part of
#: every cache fingerprint (together with the lint-package code salt).
INDEX_SCHEMA = 1

#: Sentinel stored in :attr:`FileIndex.noqa` for a bare, rule-less
#: suppression comment (one that silences every rule on its line).
NOQA_ALL = "*"

#: Seed kind -> the rule ids whose line suppression sanctions the seed.
#: A seed on a line suppressed for any of its family's rules is dropped
#: before it can enter a fixpoint, so a justified per-file suppression
#: silences the interprocedural generalization too.
SUPPRESSION_FAMILIES = {
    "taint": frozenset({"R001", "R101"}),
    "io": frozenset({"R004", "R104"}),
    "shared": frozenset({"R002", "R102", "R104"}),
    "self": frozenset({"R002", "R102"}),
}

_CLOCK_CALLS = {
    "time": {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
    },
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

_IO_CALLS = {"print", "open", "input"}

_MUTATORS = {
    "append",
    "add",
    "update",
    "extend",
    "insert",
    "remove",
    "discard",
    "pop",
    "popitem",
    "clear",
    "setdefault",
    "sort",
    "reverse",
}


@dataclass(frozen=True)
class Seed:
    """One line-level fact a fixpoint can grow from."""

    lineno: int
    desc: str


@dataclass(frozen=True)
class CallSite:
    """One syntactic call inside a function body.

    ``ref`` is the unresolved callee reference: ``("name", f)`` for a
    bare-name call, ``("attr", owner, f)`` for ``owner.f(...)``, or
    ``("self", f)`` for a call on the enclosing method's first
    parameter. Resolution to a :class:`FunctionInfo` happens in the
    project phase (:mod:`repro.lint.callgraph`).
    """

    lineno: int
    ref: Tuple[str, ...]
    discarded: bool = False
    delegated: bool = False


@dataclass(frozen=True)
class FunctionInfo:
    """Everything the project phase knows about one function."""

    qualname: str
    name: str
    lineno: int
    class_name: Optional[str]
    first_param: Optional[str]
    is_program: bool
    calls: Tuple[CallSite, ...] = ()
    taint_seeds: Tuple[Seed, ...] = ()
    io_seeds: Tuple[Seed, ...] = ()
    shared_seeds: Tuple[Seed, ...] = ()
    self_seeds: Tuple[Seed, ...] = ()
    return_taint_direct: bool = False
    return_taint_calls: Tuple[Tuple[str, ...], ...] = ()
    dead_yield_loops: Tuple[Seed, ...] = ()


@dataclass(frozen=True)
class ClassInfo:
    name: str
    lineno: int
    bases: Tuple[str, ...]
    methods: Tuple[str, ...]


@dataclass(frozen=True)
class FileIndex:
    """The distilled, pickleable summary of one source file."""

    display: str
    role: Optional[str]
    module: str
    functions: Tuple[FunctionInfo, ...] = ()
    classes: Tuple[ClassInfo, ...] = ()
    imports: Mapping[str, str] = field(default_factory=dict)
    noqa: Mapping[int, Tuple[str, ...]] = field(default_factory=dict)


def module_name(path: Path) -> str:
    """The dotted module name ``path`` would import as.

    Walks up while ``__init__.py`` exists, so ``src/repro/lint/index.py``
    maps to ``repro.lint.index``. A standalone file (fixtures) maps to
    its stem.
    """
    path = Path(path).resolve()
    if path.stem == "__init__":
        parts: List[str] = []
        parent = path.parent
        if not (parent / "__init__.py").exists():  # bare __init__.py
            return parent.name
    else:
        parts = [path.stem]
        parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _package_of(module: str, is_init: bool) -> str:
    if is_init:
        return module
    return module.rpartition(".")[0]


def _base_names(cls: ast.ClassDef) -> Tuple[str, ...]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return tuple(names)


def _nondet_call_desc(call: ast.Call) -> Optional[str]:
    """The R001-style nondeterminism description for a call, if any."""
    dotted = dotted_call(call)
    if dotted is not None:
        owner, attr = dotted
        if owner == "random" and attr != "Random":
            return f"random.{attr}()"
        if owner == "random" and attr == "Random" and not call.args:
            return "random.Random() without a seed"
        if attr in _CLOCK_CALLS.get(owner, ()):
            return f"{owner}.{attr}()"
    if (
        isinstance(call.func, ast.Name)
        and call.func.id == "id"
        and call.args
    ):
        return "id(...)"
    return None


def _call_ref(
    call: ast.Call, first_param: Optional[str]
) -> Optional[Tuple[str, ...]]:
    func = call.func
    if isinstance(func, ast.Name):
        return ("name", func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if first_param is not None and func.value.id == first_param:
            return ("self", func.attr)
        return ("attr", func.value.id, func.attr)
    return None


class _Suppressions:
    """Line -> suppressed rule names, parsed once per file."""

    def __init__(self, noqa: Mapping[int, Tuple[str, ...]]) -> None:
        self.noqa = noqa

    def sanctions(self, line: int, family: str) -> bool:
        rules = self.noqa.get(line)
        if rules is None:
            return False
        if NOQA_ALL in rules:
            return True
        return bool(set(rules) & SUPPRESSION_FAMILIES[family])


# -- local return-taint dataflow ---------------------------------------------


class _ReturnTaint:
    """Does ``fn``'s return value derive from a nondet seed or a callee?

    A tiny forward dataflow over the function body: local names become
    tainted by assignments whose right-hand side contains a seed call,
    a call to some (yet unresolved) callee, or an already-tainted name.
    The body is scanned twice so loop-carried flows settle. The result
    is symbolic in the callees: ``direct`` (a seed reaches a return)
    plus the set of call refs whose return value reaches a return —
    the project-phase fixpoint substitutes real taint verdicts for
    those symbols.
    """

    def __init__(
        self,
        fn: ast.AST,
        first_param: Optional[str],
        suppressions: _Suppressions,
    ) -> None:
        self.fn = fn
        self.first_param = first_param
        self.suppressions = suppressions
        self.env: Dict[str, Tuple[bool, FrozenSet[Tuple[str, ...]]]] = {}
        self.direct = False
        self.refs: Set[Tuple[str, ...]] = set()

    def run(self) -> Tuple[bool, Tuple[Tuple[str, ...], ...]]:
        body = getattr(self.fn, "body", [])
        for _ in range(2):  # two passes settle loop-carried assignments
            self._visit_block(body)
        return self.direct, tuple(sorted(self.refs))

    def _expr_taint(
        self, expr: ast.AST
    ) -> Tuple[bool, FrozenSet[Tuple[str, ...]]]:
        direct = False
        refs: Set[Tuple[str, ...]] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                desc = _nondet_call_desc(node)
                line = getattr(node, "lineno", 0)
                if desc is not None:
                    if not self.suppressions.sanctions(line, "taint"):
                        direct = True
                    continue
                ref = _call_ref(node, self.first_param)
                if ref is not None:
                    refs.add(ref)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                got = self.env.get(node.id)
                if got is not None:
                    direct = direct or got[0]
                    refs |= got[1]
        return direct, frozenset(refs)

    def _bind(self, target: ast.AST, taint) -> None:
        if isinstance(target, ast.Name):
            old = self.env.get(target.id, (False, frozenset()))
            self.env[target.id] = (old[0] or taint[0], old[1] | taint[1])
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, taint)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint)

    def _visit_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.Assign):
                taint = self._expr_taint(stmt.value)
                for target in stmt.targets:
                    self._bind(target, taint)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._bind(stmt.target, self._expr_taint(stmt.value))
            elif isinstance(stmt, ast.AugAssign):
                self._bind(stmt.target, self._expr_taint(stmt.value))
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._bind(stmt.target, self._expr_taint(stmt.iter))
                self._visit_block(stmt.body)
                self._visit_block(stmt.orelse)
            elif isinstance(stmt, (ast.While, ast.If)):
                if isinstance(stmt, ast.While):
                    pass  # the test's taint does not flow to values
                self._visit_block(stmt.body)
                self._visit_block(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        self._bind(
                            item.optional_vars,
                            self._expr_taint(item.context_expr),
                        )
                self._visit_block(stmt.body)
            elif isinstance(stmt, ast.Try):
                self._visit_block(stmt.body)
                for handler in stmt.handlers:
                    self._visit_block(handler.body)
                self._visit_block(stmt.orelse)
                self._visit_block(stmt.finalbody)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                direct, refs = self._expr_taint(stmt.value)
                self.direct = self.direct or direct
                self.refs |= refs
            elif isinstance(stmt, ast.Expr):
                # A bare expression cannot flow to the return value, but
                # walruses inside it can bind.
                for node in ast.walk(stmt):
                    if isinstance(node, ast.NamedExpr):
                        self._bind(
                            node.target, self._expr_taint(node.value)
                        )


# -- dead-yield loop detection -----------------------------------------------


def _is_constant(test: ast.AST, value: bool) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value) is value


def _count_yields(node: ast.AST) -> int:
    count = 0
    for inner in ast.walk(node):
        if isinstance(inner, (ast.Yield, ast.YieldFrom)):
            count += 1
    return count


def _live_yields(stmts: Sequence[ast.stmt]) -> int:
    """Yields in ``stmts`` reachable under constant-condition pruning."""
    live = 0
    for stmt in stmts:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if isinstance(stmt, ast.If):
            if _is_constant(stmt.test, False):
                live += _live_yields(stmt.orelse)
            elif _is_constant(stmt.test, True):
                live += _live_yields(stmt.body)
            else:
                live += _live_yields(stmt.body) + _live_yields(stmt.orelse)
            live += _count_yields(stmt.test)
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            live += _live_yields(stmt.body) + _live_yields(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            live += _live_yields(stmt.body) + _live_yields(stmt.orelse)
            live += _live_yields(stmt.finalbody)
            for handler in stmt.handlers:
                live += _live_yields(handler.body)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            live += _live_yields(stmt.body)
        else:
            live += _count_yields(stmt)
    return live


def _dead_yield_loops(fn: ast.AST) -> Iterator[Seed]:
    for node in walk_function_body(fn):
        if not isinstance(node, ast.While):
            continue
        if not _is_constant(node.test, True):
            continue
        total = sum(_count_yields(stmt) for stmt in node.body)
        if total == 0:
            continue  # R003's yield-free spin, not ours
        if _live_yields(node.body) == 0:
            yield Seed(
                lineno=node.lineno,
                desc=(
                    "constant-true loop whose only yields sit in "
                    "unreachable branches"
                ),
            )


# -- the indexer -------------------------------------------------------------


def _collect_imports(
    tree: ast.Module, module: str, is_init: bool
) -> Dict[str, str]:
    package = _package_of(module, is_init)
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level > 0:
                base_parts = package.split(".") if package else []
                drop = node.level - 1
                if drop:
                    base_parts = base_parts[: len(base_parts) - drop]
                base = ".".join(base_parts)
            else:
                base = ""
            target = node.module or ""
            if base and target:
                target = f"{base}.{target}"
            elif base:
                target = base
            for alias in node.names:
                if alias.name == "*":
                    continue
                full = f"{target}.{alias.name}" if target else alias.name
                imports[alias.asname or alias.name] = full
    return imports


def _index_function(
    fn: ast.AST,
    qualname: str,
    class_name: Optional[str],
    suppressions: _Suppressions,
    parents: Mapping[ast.AST, ast.AST],
) -> FunctionInfo:
    args = getattr(fn, "args", None)
    first_param = None
    if class_name is not None and args is not None and args.args:
        first_param = args.args[0].arg
    bound = local_bindings(fn)

    calls: List[CallSite] = []
    taint_seeds: List[Seed] = []
    io_seeds: List[Seed] = []
    shared_seeds: List[Seed] = []
    self_seeds: List[Seed] = []

    def classify_store(root: Optional[str], line: int, desc: str) -> None:
        if root is None:
            return
        if first_param is not None and root == first_param:
            if not suppressions.sanctions(line, "self"):
                self_seeds.append(Seed(line, desc))
        elif root not in bound:
            if not suppressions.sanctions(line, "shared"):
                shared_seeds.append(Seed(line, desc))

    for node in walk_function_body(fn):
        line = getattr(node, "lineno", getattr(fn, "lineno", 1))
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            kind = "global" if isinstance(node, ast.Global) else "nonlocal"
            if not suppressions.sanctions(line, "shared"):
                shared_seeds.append(
                    Seed(line, f"declares {kind} {', '.join(node.names)}")
                )
        elif isinstance(node, ast.Call):
            desc = _nondet_call_desc(node)
            if desc is not None:
                if not suppressions.sanctions(line, "taint"):
                    taint_seeds.append(Seed(line, desc))
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in _IO_CALLS:
                if not suppressions.sanctions(line, "io"):
                    io_seeds.append(Seed(line, f"{func.id}(...)"))
                continue
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                classify_store(
                    root_name(func.value), line, f".{func.attr}(...) call"
                )
            ref = _call_ref(node, first_param)
            if ref is not None:
                parent = parents.get(node)
                discarded = isinstance(parent, ast.Expr)
                delegated = isinstance(parent, ast.YieldFrom)
                calls.append(
                    CallSite(
                        lineno=line,
                        ref=ref,
                        discarded=discarded,
                        delegated=delegated,
                    )
                )
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    classify_store(
                        root_name(target.value), line, "store into"
                    )

    direct, refs = _ReturnTaint(fn, first_param, suppressions).run()
    is_program = is_program_coroutine(fn)
    return FunctionInfo(
        qualname=qualname,
        name=fn.name,
        lineno=fn.lineno,
        class_name=class_name,
        first_param=first_param,
        is_program=is_program,
        calls=tuple(calls),
        taint_seeds=tuple(taint_seeds),
        io_seeds=tuple(io_seeds),
        shared_seeds=tuple(shared_seeds),
        self_seeds=tuple(self_seeds),
        return_taint_direct=direct,
        return_taint_calls=refs,
        dead_yield_loops=tuple(_dead_yield_loops(fn)) if is_program else (),
    )


def build_file_index(module_ctx) -> FileIndex:
    """Distill a parsed :class:`repro.lint.engine.ModuleContext`."""
    tree = module_ctx.tree
    path = Path(module_ctx.path)
    dotted = module_name(path)
    is_init = path.stem == "__init__"

    noqa: Dict[int, Tuple[str, ...]] = {}
    for line in range(1, len(module_ctx.lines) + 1):
        rules = module_ctx.suppressions_on(line)
        if rules is None:
            continue
        noqa[line] = (NOQA_ALL,) if not rules else tuple(sorted(rules))
    suppressions = _Suppressions(noqa)

    functions: List[FunctionInfo] = []
    classes: List[ClassInfo] = []
    parents = module_ctx.parents

    def walk_defs(
        body: Sequence[ast.stmt], prefix: str, class_name: Optional[str]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{stmt.name}"
                functions.append(
                    _index_function(
                        stmt, qualname, class_name, suppressions, parents
                    )
                )
                walk_defs(stmt.body, f"{qualname}.", None)
            elif isinstance(stmt, ast.ClassDef):
                methods = tuple(
                    inner.name
                    for inner in stmt.body
                    if isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                )
                classes.append(
                    ClassInfo(
                        name=stmt.name,
                        lineno=stmt.lineno,
                        bases=_base_names(stmt),
                        methods=methods,
                    )
                )
                walk_defs(stmt.body, f"{stmt.name}.", stmt.name)

    walk_defs(tree.body, "", None)
    return FileIndex(
        display=module_ctx.display_path,
        role=module_ctx.role,
        module=dotted,
        functions=tuple(functions),
        classes=tuple(classes),
        imports=_collect_imports(tree, dotted, is_init),
        noqa=noqa,
    )
