"""The ``repro.lint`` engine: a two-phase, project-wide semantic pass.

The linter enforces the *replayability contract* the bivalency results
rest on (see ``docs/lint.md`` and the "Replayability contract" section
of ``docs/model.md``): schedules and oracle choices must replay
bit-for-bit, protocol programs must confine shared state to
``yield Invoke(...)`` steps, and sequential specs must stay pure.

The run has two phases:

* **Phase 1 — per-file**: every file is parsed once into a
  :class:`ModuleContext`; the per-file rules (R001–R006) walk it and
  the file is distilled into a :class:`repro.lint.index.FileIndex`.
  This phase is embarrassingly parallel (``jobs=N`` fans it over a
  :class:`repro.analysis.parallel.VerificationPool`, merged in
  submission order so findings are byte-identical across job counts)
  and content-addressed (``cache_dir=`` stores each file's index +
  findings under a sha256 fingerprint of its bytes, so a warm re-lint
  re-analyzes only changed files).
* **Phase 2 — whole-program**: the file indexes merge into a
  :class:`repro.lint.callgraph.ProjectIndex` and the
  :class:`ProjectRule` subclasses (R007, R101, R102, R104, R108) run
  interprocedural checks over the call graph — the generalizations
  that catch violations laundered through helper functions, which the
  per-file pass provably cannot see.

Suppressions are inline comments::

    risky_line()  # repro: noqa[R001] justification goes here
    other_line()  # repro: noqa — suppress every rule on this line

A suppressed finding is dropped from the active list but kept in the
report (``--show-suppressed`` prints them), so suppressions stay
auditable — and R007 reports suppressions that silence nothing.
Stdlib-only by design: ``ast`` + ``re`` + ``hashlib``, no new deps.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

#: Severity levels, in increasing order of gravity.
SEVERITIES = ("warning", "error")

#: Path segments that assign a module its protocol "role". Fixture
#: trees mirror these segment names so rules scope identically there.
ROLES = (
    "protocols",
    "analysis",
    "runtime",
    "objects",
    "core",
    "workloads",
    "lint",
    "fuzz",
    "obs",
)

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.rule_id} "
            f"{self.severity}: {self.message}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "file": self.path,
            "line": self.line,
            "message": self.message,
        }


class ModuleContext:
    """Everything a rule needs to know about one parsed source file."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.role: Optional[str] = self._infer_role(path)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self._comments: Optional[Dict[int, str]] = None

    @staticmethod
    def _infer_role(path: Path) -> Optional[str]:
        role = None
        for part in path.parts:
            if part in ROLES:
                role = part
        return role

    # -- shared AST services -------------------------------------------------

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """child node → parent node, computed once per module."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        cursor = self.parents.get(node)
        while cursor is not None:
            if isinstance(cursor, ast.ClassDef):
                return cursor
            cursor = self.parents.get(cursor)
        return None

    def functions(self) -> Iterator[ast.FunctionDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def classes(self) -> Iterator[ast.ClassDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=rule.rule_id,
            severity=rule.severity,
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            message=message,
        )

    # -- suppressions --------------------------------------------------------

    @property
    def comments(self) -> Dict[int, str]:
        """line number → the ``#`` comment on it, via the tokenizer.

        Only real COMMENT tokens count, so a ``# repro: noqa`` quoted
        inside a docstring neither suppresses anything nor trips R007.
        """
        if self._comments is None:
            comments: Dict[int, str] = {}
            try:
                tokens = tokenize.generate_tokens(
                    io.StringIO(self.source).readline
                )
                for token in tokens:
                    if token.type == tokenize.COMMENT:
                        comments[token.start[0]] = token.string
            except (tokenize.TokenError, IndentationError, SyntaxError):
                pass  # keep whatever tokenized before the error
            self._comments = comments
        return self._comments

    def suppressions_on(self, line: int) -> Optional[Set[str]]:
        """Rule ids suppressed on ``line``; empty set = all rules."""
        comment = self.comments.get(line)
        if comment is None:
            return None
        match = _NOQA_RE.search(comment)
        if match is None:
            return None
        rules = match.group("rules")
        if rules is None:
            return set()
        return {part.strip().upper() for part in rules.split(",") if part.strip()}

    def is_suppressed(self, finding: Finding) -> bool:
        suppressed = self.suppressions_on(finding.line)
        if suppressed is None:
            return False
        return not suppressed or finding.rule_id in suppressed


class Rule:
    """One protocol-aware invariant, checked module by module.

    Subclasses set ``rule_id``/``severity``/``title`` and implement
    :meth:`check`. Registration happens via :func:`register`.
    """

    rule_id: str = "R000"
    severity: str = "error"
    title: str = "unnamed rule"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover


class ProjectRule(Rule):
    """An interprocedural invariant, checked once over the whole run.

    Project rules see the merged
    :class:`repro.lint.callgraph.ProjectIndex` instead of one module at
    a time — that is what lets them follow a violation through helper
    calls across modules. :meth:`check` is a no-op so a project rule
    can sit in the same registry as the per-file rules.

    A subclass with ``runs_last = True`` (R007) additionally receives
    the run's suppressed findings via :meth:`check_run` after every
    other rule has finished.
    """

    runs_last: bool = False

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover

    def check_run(
        self, project, suppressed: Sequence[Finding]
    ) -> Iterator[Finding]:
        return self.check_project(project)

    def project_finding(
        self, display: str, line: int, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=display,
            line=line,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if rule_class.rule_id in _REGISTRY:
        raise ValueError(f"duplicate lint rule id {rule_class.rule_id}")
    if rule_class.severity not in SEVERITIES:
        raise ValueError(
            f"{rule_class.rule_id}: unknown severity {rule_class.severity!r}"
        )
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, in rule-id order."""
    from . import rules as _rules  # noqa: F401  (import registers the rules)

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


@dataclass
class LintReport:
    """Everything one lint run produced.

    ``files_reindexed`` / ``cache_hits`` describe *how* the run worked
    (they feed the cache-warm tests and the perf bench) and are
    deliberately excluded from :meth:`to_json`, which must stay
    byte-identical across cold and warm cache runs.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    files_reindexed: int = 0
    cache_hits: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def exit_code(self) -> int:
        """The CLI contract: 0 clean, 1 any active finding."""
        return 1 if self.findings else 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "files_checked": self.files_checked,
                "findings": [f.as_dict() for f in self.findings],
                "suppressed": [f.as_dict() for f in self.suppressed],
                "summary": {
                    "errors": len(self.errors),
                    "warnings": len(self.warnings),
                    "suppressed": len(self.suppressed),
                },
            },
            indent=2,
            sort_keys=True,
        )

    def render_text(self, show_suppressed: bool = False) -> str:
        out: List[str] = []
        for finding in self.findings:
            out.append(finding.render())
        if show_suppressed:
            for finding in self.suppressed:
                out.append(f"{finding.render()} [suppressed]")
        out.append(
            f"{self.files_checked} file(s) checked: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.suppressed)} suppressed"
        )
        return "\n".join(out)


def _collect_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            files.append(path)
    return files


def _display_path(path: Path) -> str:
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


# -- phase 1: per-file analysis ----------------------------------------------

#: The lint package itself: its digest is the lint cache's code salt.
_LINT_ROOT = Path(__file__).resolve().parent


def file_fingerprint(display: str, content: bytes, rule_key: str) -> str:
    """Content address of one file's phase-1 payload.

    Mixes in both payload schemas and
    :func:`repro.analysis.cache.package_digest` of the lint package, so
    editing the engine, a rule, or the indexer busts the lint cache —
    the same "staleness is structurally impossible" stance as the
    exploration cache's code salt, scoped to the linter.
    """
    from ..analysis.cache import CACHE_SCHEMA, package_digest
    from .index import INDEX_SCHEMA

    schemas = (CACHE_SCHEMA, INDEX_SCHEMA)
    salt = package_digest(_LINT_ROOT)
    blob = hashlib.sha256()
    blob.update(repr(("lint-file", schemas, salt, display, rule_key)).encode())
    blob.update(content)
    return blob.hexdigest()


def _analyze_file(
    path_str: str, display: str, rule_ids: Tuple[str, ...]
) -> Dict[str, object]:
    """Phase-1 worker: parse, run per-file rules, build the index.

    Module-level so :class:`repro.analysis.parallel.VerificationPool`
    workers can import it by qualified name; the returned payload is
    pure data (picklable, cacheable).
    """
    from .index import build_file_index

    path = Path(path_str)
    try:
        source = path.read_text(encoding="utf-8")
        module = ModuleContext(path, display, source)
    except (SyntaxError, UnicodeDecodeError) as exc:
        return {
            "index": None,
            "findings": [
                Finding(
                    rule_id="R000",
                    severity="error",
                    path=display,
                    line=getattr(exc, "lineno", 1) or 1,
                    message=f"file does not parse: {exc}",
                )
            ],
            "suppressed": [],
        }
    wanted = set(rule_ids)
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for rule in all_rules():
        if isinstance(rule, ProjectRule) or rule.rule_id not in wanted:
            continue
        for finding in rule.check(module):
            if module.is_suppressed(finding):
                suppressed.append(finding)
            else:
                findings.append(finding)
    return {
        "index": build_file_index(module),
        "findings": findings,
        "suppressed": suppressed,
    }


def _error_payload(display: str, message: str) -> Dict[str, object]:
    """The phase-1 payload of a file that could not be analyzed."""
    return {
        "index": None,
        "findings": [Finding("R000", "error", display, 1, message)],
        "suppressed": [],
    }


# -- the driver --------------------------------------------------------------


def lint_paths(
    paths: Sequence[Path],
    select: Optional[Iterable[str]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths``.

    ``select`` restricts the run to the named rule ids (per-file and
    project rules alike). ``jobs`` fans phase 1 over worker processes;
    results merge in submission order, so findings are byte-identical
    for any job count. ``cache_dir`` enables the content-addressed
    phase-1 cache.
    Files are visited in sorted order and findings sorted at the end,
    so reports are deterministic — the linter holds itself to R001.
    """
    active_rules = all_rules()
    if select is not None:
        wanted = {rule_id.upper() for rule_id in select}
        unknown = wanted - {rule.rule_id for rule in active_rules}
        if unknown:
            raise ValueError(f"unknown lint rule(s): {', '.join(sorted(unknown))}")
        active_rules = [r for r in active_rules if r.rule_id in wanted]
    file_rules = [r for r in active_rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in active_rules if isinstance(r, ProjectRule)]
    rule_ids = tuple(sorted(rule.rule_id for rule in file_rules))
    rule_key = ",".join(rule_ids)

    cache = None
    if cache_dir is not None:
        from ..analysis.cache import ExplorationCache

        cache = ExplorationCache(cache_dir)

    files = _collect_files([Path(p) for p in paths])
    report = LintReport(files_checked=len(files))
    payloads: List[Optional[Dict[str, object]]] = [None] * len(files)
    displays: Dict[int, str] = {}
    contents: Dict[int, bytes] = {}

    for pos, file_path in enumerate(files):
        display = displays[pos] = _display_path(file_path)
        try:
            contents[pos] = file_path.read_bytes()
        except OSError as exc:
            payloads[pos] = _error_payload(display, f"unreadable: {exc}")

    if contents:
        from ..analysis.cache import cached_sweep

        values, failures = cached_sweep(
            cache,
            [
                (pos, _analyze_file, (str(path), displays[pos], rule_ids))
                for pos, path in enumerate(files)
                if pos in contents
            ],
            lambda pos: file_fingerprint(
                displays[pos], contents[pos], rule_key
            ),
            jobs=jobs,
        )
        report.cache_hits = cache.hits if cache is not None else 0
        report.files_reindexed = len(contents) - report.cache_hits
        for pos, value in values.items():
            payloads[pos] = value
        for pos, failure in failures.items():
            payloads[pos] = _error_payload(
                displays[pos], f"lint analysis failed: {failure.render()}"
            )

    for payload in payloads:
        if payload is None:  # pragma: no cover - defensive
            continue
        report.findings.extend(payload["findings"])
        report.suppressed.extend(payload["suppressed"])

    # -- phase 2: whole-program rules over the merged index ---------------
    if project_rules:
        from .callgraph import ProjectIndex

        indexes = [
            payload["index"]
            for payload in payloads
            if payload is not None and payload["index"] is not None
        ]
        project = ProjectIndex(indexes)
        by_display = {index.display: index for index in indexes}
        ordered = sorted(
            project_rules, key=lambda rule: (rule.runs_last, rule.rule_id)
        )
        for rule in ordered:
            if rule.runs_last:
                produced = rule.check_run(project, list(report.suppressed))
            else:
                produced = rule.check_project(project)
            for finding in produced:
                index = by_display.get(finding.path)
                if index is not None and _suppresses_project(
                    index, finding, explicit_only=rule.runs_last
                ):
                    report.suppressed.append(finding)
                else:
                    report.findings.append(finding)

    report.findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    report.suppressed.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return report


def _suppresses_project(index, finding: Finding, explicit_only: bool) -> bool:
    """Suppression check for phase-2 findings, via the file index.

    R007 (``explicit_only``) is only silenced by a noqa naming it —
    otherwise a *bare* unused ``# repro: noqa`` would suppress its own
    unused-ness and never be reported.
    """
    from .index import NOQA_ALL

    rules = index.noqa.get(finding.line)
    if rules is None:
        return False
    if explicit_only:
        return finding.rule_id in rules
    return NOQA_ALL in rules or finding.rule_id in rules
