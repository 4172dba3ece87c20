"""Best-effort in-place builder for the accelerated kernel extension.

``python -m repro.analysis.kernel._build`` (or ``make kernel-ext``)
compiles ``_ckernel.c`` next to its source with the running
interpreter's headers, so the ``compiled`` backend becomes importable
without any packaging step. The build is strictly optional: failure
leaves the ``python`` backend as the working default, and setup.py
marks the extension ``optional=True`` for the same reason.

No third-party toolchain is assumed — just a C compiler discovered via
``CC`` or common defaults, plus the stdlib ``sysconfig`` paths.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from typing import List, Optional

_HERE = Path(__file__).resolve().parent
SOURCE = _HERE / "_ckernel.c"
#: Last failed build's output, persisted so forced-compiled error
#: messages can say *why* the extension is missing, not just that it is.
BUILD_LOG = _HERE / "_build.log"


def extension_path() -> Path:
    """Where the built extension lives (next to its source)."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return _HERE / f"_ckernel{suffix}"


def last_build_error() -> Optional[str]:
    """The captured output of the last failed build, or None.

    Best-effort: an unreadable or absent log simply reports None (a
    clean state, or a box where the log could not be written).
    """
    try:
        text = BUILD_LOG.read_text(errors="replace").strip()
    except OSError:
        return None
    return text or None


def _record_build_error(text: str) -> None:
    try:
        BUILD_LOG.write_text(text)
    except OSError:
        pass  # diagnostics only; never fail the build over the log


def _clear_build_error() -> None:
    try:
        BUILD_LOG.unlink()
    except OSError:
        pass


def find_compiler() -> Optional[str]:
    """The C compiler to use, or None when the box has none."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def build_command(compiler: str, output: Path) -> List[str]:
    """The one-shot shared-object compile command."""
    include_dir = sysconfig.get_path("include")
    return [
        compiler,
        "-O2",
        "-fPIC",
        "-shared",
        "-I",
        include_dir,
        str(SOURCE),
        "-o",
        str(output),
    ]


def build(verbose: bool = True) -> bool:
    """Compile the extension in place. Returns True on success.

    Never raises for missing-toolchain or compile failures — the
    compiled backend is opt-in and its absence is a supported state.
    """
    compiler = find_compiler()
    if compiler is None:
        if verbose:
            print("kernel-ext: no C compiler found; skipping", file=sys.stderr)
        _record_build_error("no C compiler found (set CC, or install gcc/clang)")
        return False
    output = extension_path()
    command = build_command(compiler, output)
    if verbose:
        print("kernel-ext:", " ".join(command), file=sys.stderr)
    try:
        proc = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            check=False,
        )
    except OSError as exc:
        if verbose:
            print(f"kernel-ext: build failed to launch: {exc}", file=sys.stderr)
        _record_build_error(f"build failed to launch: {exc}")
        return False
    if proc.returncode != 0:
        if verbose:
            print(proc.stdout, file=sys.stderr)
            print(
                f"kernel-ext: compile failed (exit {proc.returncode}); "
                "the python backend remains the default",
                file=sys.stderr,
            )
        _record_build_error(
            f"compile failed (exit {proc.returncode}):\n{proc.stdout}"
        )
        try:
            output.unlink()
        except OSError:
            pass
        return False
    if verbose:
        print(f"kernel-ext: built {output.name}", file=sys.stderr)
    _clear_build_error()
    return True


def main() -> int:
    return 0 if build(verbose=True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
