"""Run the repro CLI (or server) with the benchmark's timing wrappers.

    python perfbench/shim.py SPAN_DIR ROLE [repro CLI arguments...]

Installs :mod:`spans` before ``repro`` is imported, times ``import
repro.cli`` and ``repro.cli.main``, counts the ``repro`` modules loaded
by the end, flushes the spans to ``SPAN_DIR`` and exits with the CLI's
exit code. Only ``os``, ``sys`` and ``time`` load before the program.
"""

import sys
import time

entered = time.perf_counter()

import spans  # noqa: E402  (the script's own directory is on sys.path)


def main():
    out_dir, role, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = spans.install(out_dir, role)
    rec.add("cli.enter", "cli", entered, 0.0)
    t0 = rec.open()
    import repro.cli

    rec.close("cli.import", "cli", t0)
    code = repro.cli.main(argv)
    sys.stdout.flush()
    loaded = sum(1 for name in sys.modules if name.split(".")[0] == "repro")
    rec.add("cli.exit", "cli", time.perf_counter(), 0.0, {"modules": loaded})
    rec.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
