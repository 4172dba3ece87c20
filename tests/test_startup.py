"""The start-up contract: a command loads only the modules it runs.

Package ``__init__``s export lazily (PEP 562) and stdlib/engine
modules are imported where they are used, so a warm cache hit never
pays for the explorer, kernel, protocol, lint, pool or profiler
imports: it reads its cached record and renders. Every
import check runs in a fresh interpreter: ``sys.modules`` in the test
process is already full.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs.schema import load_trace

SRC = Path(repro.__file__).resolve().parent.parent

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.protocols",
    "repro.objects",
    "repro.runtime",
    "repro.fuzz",
    "repro.lint",
)

#: Modules no warm cache hit may import.
HEAVY = (
    "multiprocessing",
    "concurrent.futures",
    "cProfile",
    "pstats",
    "repro.lint.engine",
    "repro.analysis.explorer",
    "repro.analysis.kernel",
    "repro.analysis.parallel",
    "repro.analysis.valency",
    "repro.analysis.valency_analyzer",
    "repro.core.pac",
    "repro.core.power",
    "repro.protocols.candidates",
    "repro.protocols.dac_from_pac",
    "repro.serve",
)

#: Runs ``repro.cli.main(argv)`` and prints what it returned, printed
#: and imported as one JSON line.
_PROBE = """
import contextlib, io, json, sys
from repro.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
json.dump(
    {"code": code, "stdout": out.getvalue(), "modules": sorted(sys.modules)},
    sys.__stdout__,
)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _python(*args, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, *args],
        env=_env(),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )


def _cli(*argv):
    """``repro <argv>`` in a fresh interpreter: code, stdout, modules."""
    result = _python("-c", _PROBE, *argv)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _table(package):
    """The submodule -> names table the package hands to the helper."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_lazy_exports"
        ):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package} does not export through _lazy_exports")


def test_import_repro_loads_no_submodule():
    result = _python(
        "-c",
        "import json, sys, repro; "
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.')); "
        "print(json.dumps([loaded, repro.core.pac.__name__]))",
    )
    assert result.returncode == 0, result.stderr
    loaded, pac = json.loads(result.stdout)
    assert loaded == []
    # Submodules named in the table stay reachable as attributes.
    assert pac == "repro.core.pac"


@pytest.mark.parametrize(
    "argv, hit",
    [
        (("explore", "--n", "2", "--cache"), '"cache_hit": true'),
        (("check-algorithm2", "--n", "2", "--cache"), "hits=4 misses=0"),
    ],
    ids=["explore", "check-algorithm2"],
)
def test_warm_cache_hit_skips_heavy_modules(tmp_path, argv, hit):
    argv = (*argv, "--cache-dir", str(tmp_path), "--format", "json")
    cold = _cli(*argv)
    assert hit not in cold["stdout"]
    warm = _cli(*argv)
    assert warm["code"] == 0
    assert hit in warm["stdout"]
    loaded = [name for name in HEAVY if name in warm["modules"]]
    assert loaded == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_match_their_submodules(package):
    table = _table(package)
    listed = [name for names in table.values() for name in names]
    assert len(listed) == len(set(listed)), "a name is listed twice"
    module = importlib.import_module(package)
    assert module.__all__ == sorted(listed)
    for sub, names in table.items():
        source = importlib.import_module(f"{package}.{sub}")
        for name in names:
            assert getattr(module, name) is getattr(source, name), name
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(listed) <= set(namespace)
    assert set(listed) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")


def test_pooled_sweep_matches_serial():
    serial = _cli("check-algorithm2", "--n", "3", "--jobs", "1")
    pooled = _cli("check-algorithm2", "--n", "3", "--jobs", "2")
    assert "concurrent.futures" not in serial["modules"]
    assert "concurrent.futures" in pooled["modules"]
    assert pooled["code"] == serial["code"] == 0
    assert pooled["stdout"] == serial["stdout"]


def test_profile_tables_land_in_a_valid_trace(tmp_path):
    path = tmp_path / "profile.jsonl"
    run = _cli(
        "check-algorithm2", "--n", "2", "--profile", "--trace", str(path)
    )
    assert run["code"] == 0
    assert "cProfile" in run["modules"]
    profiles = [r for r in load_trace(str(path)) if r["type"] == "profile"]
    assert [r["phase"] for r in profiles] == ["verify"]
    assert profiles[0]["top"]


def test_closed_stdout_exits_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _python(
            "-m", "repro", "explore", "--n", "2", "--format", "json",
            stdout=write_end,
        )
    finally:
        os.close(write_end)
    assert result.stderr == ""
    assert result.returncode != 0
