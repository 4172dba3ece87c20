"""CLI glue for ``python -m repro lint`` and its ``repro-lint`` alias.

Exit-code contract (so the linter can gate CI):

* ``0`` — every checked file is clean (suppressed findings included in
  the report but not the verdict);
* ``1`` — at least one active finding (any severity) or unparseable
  file;
* ``2`` — usage error (unknown rule id, missing path).

``--jobs N`` fans the per-file phase over worker processes and
``--cache-dir`` reuses phase-1 results across runs; both are
report-invariant — findings are byte-identical whatever you pick.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence


def default_target() -> Path:
    """The installed ``repro`` package tree — lints itself by default."""
    return Path(__file__).resolve().parent.parent


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run, e.g. R001,R101",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the per-file phase (default: 1; "
        "findings are byte-identical for any value)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed cache for per-file analysis; a warm "
        "re-lint re-indexes only changed files",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by '# repro: noqa[...]'",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The ``repro-lint`` console script: ``repro lint`` by another name,
    with the same output in every format and the same exit code."""
    # Imported here: repro.cli imports this module to build its parser.
    from ..cli import main as repro_main

    return repro_main(["lint", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
