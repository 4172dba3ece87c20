"""Phase 2 plumbing: the project-wide symbol table and call graph.

:class:`ProjectIndex` merges every :class:`repro.lint.index.FileIndex`
of one lint run into a queryable whole: dotted module names map to
files, ``(module, qualname)`` keys map to functions, and unresolved
:class:`~repro.lint.index.CallSite` references resolve to those keys
through the per-file import maps. Resolution is deliberately
best-effort — a call the resolver cannot attribute (stdlib, dynamic
dispatch, higher-order values) simply resolves to ``None`` and the
interprocedural rules stay silent about it. What *is* resolved is
resolved deterministically: module-name collisions break by sorted
display path, and every iteration order below is sorted.

The taint/impurity/shared-write fixpoints over this graph live in
:mod:`repro.lint.taint`; :class:`ProjectIndex` memoizes their results
so several rules can share one computation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .index import FileIndex, FunctionInfo

#: A function's project-wide identity.
FunctionKey = Tuple[str, str]  # (module dotted name, qualname)


class ProjectIndex:
    """Every indexed file of one lint run, cross-referenced."""

    def __init__(self, files: Sequence[FileIndex]) -> None:
        self.files: Tuple[FileIndex, ...] = tuple(
            sorted(files, key=lambda f: f.display)
        )
        self.modules: Dict[str, FileIndex] = {}
        for file in self.files:
            # First (sorted) file wins a name collision — deterministic.
            self.modules.setdefault(file.module, file)
        self.functions: Dict[FunctionKey, Tuple[FileIndex, FunctionInfo]] = {}
        for file in self.files:
            if self.modules.get(file.module) is not file:
                continue
            for fn in file.functions:
                self.functions.setdefault((file.module, fn.qualname), (file, fn))
        self._analyses: Dict[str, Mapping] = {}

    # -- lookups ---------------------------------------------------------

    def function(
        self, key: FunctionKey
    ) -> Optional[Tuple[FileIndex, FunctionInfo]]:
        return self.functions.get(key)

    def sorted_function_keys(self) -> List[FunctionKey]:
        return sorted(self.functions)

    def iter_files(self) -> Iterator[FileIndex]:
        return iter(self.files)

    # -- call resolution -------------------------------------------------

    def _resolve_target(self, target: str) -> Optional[FunctionKey]:
        """``"pkg.mod.fn"`` -> the function key, if the module is indexed."""
        parts = target.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            rest = parts[split:]
            file = self.modules.get(module)
            if file is None:
                continue
            if len(rest) == 1:
                key = (module, rest[0])
                if key in self.functions:
                    return key
            return None
        return None

    def resolve_call(
        self, caller_file: FileIndex, caller: FunctionInfo, ref: Tuple[str, ...]
    ) -> Optional[FunctionKey]:
        """The :data:`FunctionKey` a call site reference points at, if any."""
        kind = ref[0]
        if kind == "self":
            if caller.class_name is None:
                return None
            key = (caller_file.module, f"{caller.class_name}.{ref[1]}")
            return key if key in self.functions else None
        if kind == "name":
            name = ref[1]
            target = caller_file.imports.get(name)
            if target is not None:
                return self._resolve_target(target)
            key = (caller_file.module, name)
            return key if key in self.functions else None
        if kind == "attr":
            owner, attr = ref[1], ref[2]
            target = caller_file.imports.get(owner)
            if target is None:
                return None
            # ``from pkg import helpers`` + ``helpers.fn(...)``, or
            # ``import pkg.helpers as helpers``.
            file = self.modules.get(target)
            if file is not None:
                key = (target, attr)
                return key if key in self.functions else None
            return self._resolve_target(f"{target}.{attr}")
        return None

    def callees(
        self, key: FunctionKey
    ) -> Iterator[Tuple[FunctionKey, "CallSiteView"]]:
        """Resolved callees of ``key``, in source order."""
        entry = self.functions.get(key)
        if entry is None:
            return
        file, fn = entry
        for site in fn.calls:
            callee = self.resolve_call(file, fn, site.ref)
            if callee is not None:
                yield callee, site

    # -- memoized project analyses ---------------------------------------

    def analysis(self, name: str, compute) -> Mapping:
        if name not in self._analyses:
            self._analyses[name] = compute(self)
        return self._analyses[name]


#: Alias documenting what :meth:`ProjectIndex.callees` yields alongside
#: the key — the raw :class:`repro.lint.index.CallSite`.
CallSiteView = "repro.lint.index.CallSite"
