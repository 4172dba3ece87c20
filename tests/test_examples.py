"""Every example script must run clean — they are living documentation."""

import importlib.util
import os
import re
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def example_paths():
    return sorted(
        os.path.join(EXAMPLES_DIR, name)
        for name in os.listdir(EXAMPLES_DIR)
        if name.endswith(".py")
    )


@pytest.mark.parametrize(
    "path", example_paths(), ids=[os.path.basename(p) for p in example_paths()]
)
def test_example_runs_clean(path):
    result = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "complete" in result.stdout.lower() or "legend" in result.stdout.lower()


def test_we_ship_at_least_five_examples():
    assert len(example_paths()) >= 5


def test_readme_quickstart_runs():
    """The README's Quickstart block is the documented user of the
    package-level import paths; it must run as written."""
    readme = os.path.join(EXAMPLES_DIR, "..", "README.md")
    with open(readme, encoding="utf-8") as handle:
        section = handle.read().split("\n## Quickstart\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Quickstart)", "exec"), {})


def _load_example(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(EXAMPLES_DIR, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hierarchy_tour_probes_the_requested_count(monkeypatch):
    # The O_2 row's n=4 cell must grade a 4-process run, not the
    # 3-process candidate the (3,2)-PAC retry family defaults to.
    from repro.analysis.explorer import Explorer
    from repro.core.hierarchy import REFUTED

    tour = _load_example("hierarchy_tour")
    sizes = []
    init = Explorer.__init__

    def recording(self, objects, processes, *args, **kwargs):
        sizes.append(len(processes))
        init(self, objects, processes, *args, **kwargs)

    monkeypatch.setattr(Explorer, "__init__", recording)
    cell = tour.on_probe(2).probe(4)
    assert sizes and set(sizes) == {4}
    assert cell.grade == REFUTED
