"""Every product module, and every public name in it, has a shipped caller.

A module under ``src/repro`` ships only if something that ships imports
it: another product module, a bench, an example, or a ``python -m``
target in the Makefile. A name read through a package's re-export or
``_lazy_exports`` table (``from repro.objects import X``,
``obs.profile_phase``) reaches the module that defines it. The package's
own ``__init__`` re-export is not a use, unless the ``__init__`` reads
the name itself or is ``repro/lint/rules/__init__.py``, whose imports
register the rules.

A public top-level function or class, or a public method of a public
class, ships only if something that ships names it outside its own
definition: product code, a bench, an example, or ``perfbench``
(including the attribute paths its ``PATCHES`` table wraps by string).
A read, an attribute or an import names it; a package
``__init__``'s re-export, a ``_lazy_exports`` string, ``__all__`` and
the docs do not. Names match by identifier, so an override of a method
the engine calls by name (``spec.responses(...)``) is used through that
call.

A package exports a name (its ``_lazy_exports`` table, its
``__all__``, or a ``from .sub import name`` its ``__init__`` does not
read itself) only if something that ships reads the name through the
package: ``from repro.pkg import X``, ``pkg.X`` on a bound package, or
a ``PATCHES`` path on the package. Every other caller imports the name
from its defining module, so the re-export is a second path to it.

The check reads the source with :mod:`ast` and never imports the
package, so importing a module here cannot be what reaches it.
"""

import ast
import re
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SHIPPED_SCRIPTS = ("benchmarks", "examples")

#: Packages whose ``__init__`` imports its modules to register them.
REGISTRATION_PACKAGES = {"repro.lint.rules"}

#: Scripts that name product code without shipping inside ``repro``.
NAME_CALLERS = (*SHIPPED_SCRIPTS, "perfbench")

#: Public names kept with no shipped caller, and why.
TEST_SEAMS = {
    # Crash-stop injection: the crash tests' seam into a running system.
    "repro.runtime.system.System.crash",
}


def _module_name(path: Path, src: Path = SRC) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _product_modules(src: Path = SRC):
    """``{module name: path}`` for every ``.py`` file under ``src/repro``."""
    return {
        _module_name(path, src): path
        for path in sorted((src / "repro").rglob("*.py"))
    }


def _parse(path: Path) -> ast.Module:
    with warnings.catch_warnings():
        # An invalid escape in a scanned docstring is not this check's concern.
        warnings.simplefilter("ignore")
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_exports(modules):
    """``{package: {exported name: submodule}}`` from each ``__init__``'s
    ``from .sub import name`` lines and its ``_lazy_exports`` table."""
    exports = {}
    for package, path in modules.items():
        if path.name != "__init__.py":
            continue
        table = exports[package] = {}
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    table[alias.asname or alias.name] = f"{package}.{node.module}"
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "_lazy_exports"
            ):
                lazy = node.args[1]
                for sub, names in zip(lazy.keys, lazy.values):
                    for name in names.elts:
                        table[name.value] = f"{package}.{sub.value}"
    return exports


class _Reach:
    """The product modules one file's imports load, directly or through
    a package's exported names (``from repro.objects import X``,
    ``obs.profile_phase``)."""

    def __init__(self, modules, exports):
        self.modules = modules
        self.exports = exports

    def through(self, module, name):
        """Modules reached by reading ``module.name``."""
        sub = f"{module}.{name}"
        if sub in self.modules:
            return [sub]
        target = self.exports.get(module, {}).get(name)
        if target is None:
            return []
        return [target, *self.through(target, name)]

    def reads(self, path: Path, importer: str):
        """``(module, name, local)`` per name ``path`` reads off a
        module: ``from module import name`` (bound as ``local``), the
        attribute ``module.name`` (``local`` None; chains such as
        ``repro.obs.span`` included), and ``(module, None, None)`` per
        ``import module``. ``importer`` is its dotted name ("" for a
        script)."""
        is_package = path.name == "__init__.py"
        package = importer if is_package else importer.rpartition(".")[0]
        tree = _parse(path)
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.modules:
                        yield alias.name, None, None
                    local = alias.asname or alias.name.partition(".")[0]
                    bound[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    parts = package.split(".")
                    anchor = parts[: len(parts) - node.level + 1]
                    base = ".".join(anchor + ([node.module] if node.module else []))
                else:
                    base = node.module
                for alias in node.names:
                    local = alias.asname or alias.name
                    yield base, alias.name, local
                    if f"{base}.{alias.name}" in self.modules:
                        bound[local] = f"{base}.{alias.name}"

        def module_of(node):
            if isinstance(node, ast.Name):
                return bound.get(node.id)
            if isinstance(node, ast.Attribute):
                parent = module_of(node.value)
                if f"{parent}.{node.attr}" in self.modules:
                    return f"{parent}.{node.attr}"
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                module = module_of(node.value)
                if module is not None:
                    yield module, node.attr, None

    def of_file(self, path: Path, importer: str):
        """``(reached module, bound names)`` per read in ``path``."""
        for module, name, local in self.reads(path, importer):
            names = () if local is None else (local,)
            if name is None or (local is not None and module in self.modules):
                yield module, names
            if name is not None:
                for target in self.through(module, name):
                    yield target, names


def _used_names(path: Path):
    return {
        node.id
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _makefile_targets():
    """Modules run as ``python -m <target>``; a package target runs
    its ``__main__``."""
    text = (ROOT / "Makefile").read_text(encoding="utf-8")
    return set(re.findall(r"python -m ([\w.]+)", text))


def _unreached_modules():
    modules = _product_modules()
    reach = _Reach(modules, _package_exports(modules))
    reached = set()
    for importer, path in modules.items():
        is_package = path.name == "__init__.py"
        used = _used_names(path) if is_package else set()
        for module, names in reach.of_file(path, importer):
            if module == importer:
                continue
            # A package's own re-export is not a use, unless the package
            # reads the name itself or imports the module to register it.
            own_reexport = (
                is_package
                and module.rpartition(".")[0] == importer
                and importer not in REGISTRATION_PACKAGES
                and not used & set(names)
            )
            if not own_reexport:
                reached.add(module)
    for directory in SHIPPED_SCRIPTS:
        for path in sorted((ROOT / directory).glob("*.py")):
            reached.update(module for module, _names in reach.of_file(path, ""))
    for target in _makefile_targets():
        reached.update((target, f"{target}.__main__"))
    return sorted(
        name
        for name, path in modules.items()
        if path.name != "__init__.py" and name not in reached
    )


def test_every_product_module_has_a_shipped_caller():
    assert _unreached_modules() == []


def test_the_check_sees_the_shipped_importers():
    """The scan resolves relative imports, names read through a
    package's exports and the Makefile's ``python -m`` targets; if it
    found nothing, the test above would pass vacuously."""
    modules = _product_modules()
    reach = _Reach(modules, _package_exports(modules))

    def reached_from(name):
        return {module for module, _names in reach.of_file(modules[name], name)}

    assert "repro.lint.rules.r001_determinism" in modules
    # A function-local relative import.
    assert "repro.core.relations" in reached_from("repro.cli")
    # ``obs.profile_phase`` through ``repro.obs``'s re-export.
    assert "repro.obs.profile" in reached_from("repro.api.execute")
    # ``from repro.objects import StickyBitSpec`` through the lazy table.
    tour = ROOT / "examples" / "hierarchy_tour.py"
    assert "repro.objects.classic" in {m for m, _n in reach.of_file(tour, "")}
    assert {"repro", "repro.analysis.kernel._build"} <= _makefile_targets()


def _definitions(src: Path):
    """``{dotted name: (path, node)}`` for every public top-level
    function or class under ``src/repro`` and every public method of a
    public class; ``@register``-decorated lint rules are left out."""
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = _module_name(path, src)
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or any(
                getattr(decorator, "id", None) == "register"
                for decorator in node.decorator_list
            ):
                continue
            found[f"{module}.{node.name}"] = (path, node)
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not (
                        method.name.startswith("_")
                    ):
                        found[f"{module}.{node.name}.{method.name}"] = (
                            path,
                            method,
                        )
    return found


def _name_uses(path: Path):
    """``(identifier, line)`` for each name ``path`` reads: a loaded
    name, seen through its ``import ... as`` alias, an attribute, or a
    name imported outside a package ``__init__`` (deleting it would
    break the import)."""
    tree = _parse(path)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
                if path.name != "__init__.py":
                    yield alias.name, node.lineno
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield aliases.get(node.id, node.id), node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _patched_paths(root: Path):
    """``(module, attribute path)`` per entry of the ``PATCHES`` table
    in ``perfbench/spans.py``."""
    for node in _parse(root / "perfbench" / "spans.py").body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "PATCHES" for target in node.targets
        ):
            for module, entries in zip(node.value.keys, node.value.values):
                for entry in entries.elts:
                    yield module.value, entry.elts[0].value


def _patched_names(root: Path):
    """Each part of an attribute path that ``perfbench/spans.py``
    patches by string."""
    return {
        part for _module, path in _patched_paths(root) for part in path.split(".")
    }


def _unused_names(root: Path = ROOT):
    """Public names under ``root/src/repro`` that nothing shipped names."""
    src = root / "src"
    uses = {}
    callers = list((src / "repro").rglob("*.py"))
    for directory in NAME_CALLERS:
        callers += sorted((root / directory).glob("*.py"))
    for path in callers:
        for name, line in _name_uses(path):
            uses.setdefault(name, []).append((path, line))
    patched = _patched_names(root)
    unused = []
    for dotted, (path, node) in _definitions(src).items():
        name = node.name
        if dotted in TEST_SEAMS or name in patched:
            continue
        if not any(
            use_path != path or not node.lineno <= line <= node.end_lineno
            for use_path, line in uses.get(name, ())
        ):
            unused.append(dotted)
    return sorted(unused)


def test_every_public_name_has_a_shipped_caller():
    assert _unused_names() == []


def test_the_name_check_flags_a_name_only_tests_call(tmp_path):
    """A planted tree: a re-exported name only a test calls is flagged;
    a name perfbench patches by string, a registered lint rule and an
    override of a method the engine calls by name are not."""
    files = {
        "src/repro/__init__.py": (
            '_lazy_exports("repro", {"mod": ("only_tested", "Spec")})\n'
            "from .mod import only_tested\n"
            '__all__ = ["only_tested"]\n'
        ),
        "src/repro/mod.py": (
            "def only_tested():\n"
            "    return only_tested\n"
            "def patched():\n"
            "    pass\n"
            "@register\n"
            "class Rule:\n"
            "    pass\n"
            "class Spec(Base):\n"
            "    def responses(self, state, operation):\n"
            "        return ()\n"
            "if __name__ == '__main__':\n"
            "    Spec().responses(None, None)\n"
        ),
        "perfbench/spans.py": (
            'PATCHES = {"repro.mod": [("patched", "x", "y", None)]}\n'
        ),
        "tests/test_mod.py": "from repro.mod import only_tested\nonly_tested()\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert _unused_names(tmp_path) == ["repro.mod.only_tested"]


def test_the_name_check_sees_the_tree():
    """The real tree's definitions and patched paths are found, so the
    main test cannot pass vacuously."""
    definitions = _definitions(SRC)
    assert "repro.core.pac.NPacSpec.responses" in definitions
    assert "repro.runtime.system.System.crash" in definitions
    assert not any(".lint.rules.r001_" in name for name in definitions)
    assert {"Request", "fingerprint", "run_bfs"} <= _patched_names(ROOT)


def _dunder_all(path: Path):
    """The names a literal ``__all__ = [...]`` in ``path`` lists."""
    for node in _parse(path).body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, (ast.List, ast.Tuple))
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        ):
            return {element.value for element in node.value.elts}
    return set()


def _unread_reexports(root: Path = ROOT):
    """``package.name`` for each name a package under ``root/src/repro``
    exports that nothing shipped reads through the package."""
    modules = _product_modules(root / "src")
    exports = _package_exports(modules)
    reach = _Reach(modules, exports)
    callers = [(path, importer) for importer, path in modules.items()]
    for directory in NAME_CALLERS:
        callers += [(path, "") for path in sorted((root / directory).glob("*.py"))]
    read = {
        (module, name)
        for path, importer in callers
        for module, name, _local in reach.reads(path, importer)
        if module != importer
    }
    read.update(
        (module, path.partition(".")[0]) for module, path in _patched_paths(root)
    )
    unread = []
    for package, table in sorted(exports.items()):
        init = modules[package]
        # An import the ``__init__`` reads itself is a use, not a re-export.
        listed = (set(table) - _used_names(init)) | _dunder_all(init)
        unread += [
            f"{package}.{name}"
            for name in sorted(listed)
            if (package, name) not in read
        ]
    return unread


def test_every_reexport_has_a_shipped_caller():
    assert _unread_reexports() == []


def test_the_reexport_check_flags_an_export_only_its_module_serves(tmp_path):
    """A planted tree: a re-export that product code reaches only
    through its defining module is flagged; one a script reads through
    the package (imported or as an attribute) and one perfbench patches
    on the package by string are not."""
    files = {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py": (
            "from .. import _lazy_exports\n"
            "__getattr__, __dir__, __all__ = _lazy_exports(\n"
            '    __name__, {"mod": ("direct", "imported", "patched")}\n'
            ")\n"
            "from .other import attribute\n"
        ),
        "src/repro/pkg/mod.py": (
            "def direct(): pass\n"
            "def imported(): pass\n"
            "def patched(): pass\n"
        ),
        "src/repro/pkg/other.py": "def attribute(): pass\n",
        "src/repro/user.py": "from repro.pkg.mod import direct\ndirect()\n",
        "examples/demo.py": "from repro.pkg import imported\nimported()\n",
        "benchmarks/bench.py": "import repro.pkg\nrepro.pkg.attribute()\n",
        "perfbench/spans.py": 'PATCHES = {"repro.pkg": [("patched", None)]}\n',
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert _unread_reexports(tmp_path) == ["repro.pkg.direct"]


def test_the_reexport_check_sees_the_tree():
    """The real tree's tables, ``__all__`` lists and patched package
    paths are found, so the main test cannot pass vacuously."""
    modules = _product_modules()
    exports = _package_exports(modules)
    assert exports["repro"]["NPacSpec"] == "repro.core.pac"
    assert exports["repro.analysis"]["Explorer"] == "repro.analysis.explorer"
    assert "select" in _dunder_all(modules["repro.analysis.kernel"])
    assert ("repro.obs", "session") in set(_patched_paths(ROOT))
