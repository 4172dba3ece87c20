"""Every product module has a shipped caller.

A module under ``src/repro`` ships only if something that ships imports
it: another product module, a bench, an example, or a ``python -m``
target in the Makefile. A name read through a package's re-export or
``_lazy_exports`` table (``from repro.objects import X``,
``obs.profile_phase``) reaches the module that defines it. The package's
own ``__init__`` re-export is not a use, unless the ``__init__`` reads
the name itself or is ``repro/lint/rules/__init__.py``, whose imports
register the rules.

The check reads the source with :mod:`ast` and never imports the
package, so importing a module here cannot be what reaches it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SHIPPED_SCRIPTS = ("benchmarks", "examples")

#: Packages whose ``__init__`` imports its modules to register them.
REGISTRATION_PACKAGES = {"repro.lint.rules"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _product_modules():
    """``{module name: path}`` for every ``.py`` file under ``src/repro``."""
    return {
        _module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))
    }


def _parse(path: Path) -> ast.Module:
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

    def of_file(self, path: Path, importer: str):
        """``(reached module, bound names)`` per import in ``path``;
        ``importer`` is its dotted name ("" for a script)."""
        is_package = path.name == "__init__.py"
        package = importer if is_package else importer.rpartition(".")[0]
        tree = _parse(path)
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.modules:
                        yield alias.name, ()
                    local = alias.asname or alias.name.partition(".")[0]
                    bound[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    parts = package.split(".")
                    anchor = parts[: len(parts) - node.level + 1]
                    base = ".".join(anchor + ([node.module] if node.module else []))
                else:
                    base = node.module
                if base in self.modules:
                    yield base, tuple(a.asname or a.name for a in node.names)
                for alias in node.names:
                    local = alias.asname or alias.name
                    for module in self.through(base, alias.name):
                        yield module, (local,)
                    if f"{base}.{alias.name}" in self.modules:
                        bound[local] = f"{base}.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module = bound.get(node.value.id)
                if module is not None:
                    for target in self.through(module, node.attr):
                        yield target, ()


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
