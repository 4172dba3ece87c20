"""CLI glue for ``python -m repro lint`` / the ``repro-lint`` script.

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
from pathlib import Path
from typing import List, Optional, Sequence


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


def run_lint(args: argparse.Namespace) -> int:
    # Imported here, not at the top: every ``repro`` command builds the
    # lint subparser through :func:`add_lint_arguments`.
    from .engine import all_rules, lint_paths

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.severity:7s}  {rule.title}")
        return 0
    paths: List[Path] = [Path(p) for p in args.paths] or [default_target()]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"repro lint: no such path: {path}")
        return 2
    select = (
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select
        else None
    )
    try:
        report = lint_paths(
            paths,
            select=select,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )
    except ValueError as exc:
        print(f"repro lint: {exc}")
        return 2
    if args.format == "json":
        print(report.to_json())
    elif args.format == "sarif":
        from .sarif import render_sarif

        print(render_sarif(report))
    else:
        print(report.render_text(show_suppressed=args.show_suppressed))
    return report.exit_code()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Protocol-aware static analysis for the repro library "
        "(replayability contract R001-R006 + interprocedural R007/R10x)",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
