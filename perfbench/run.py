"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/repro``).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once under the timing wrappers and prints
the per-layer metrics instead. Human-readable lines come first; the
last line of stdout is the JSON result. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import traceback

import harness

WORKLOADS = ("engine-batch", "serve-open", "cli-cache")


class Context:
    """Everything a workload needs to know about this run."""

    def __init__(self, args: argparse.Namespace, checkout: str) -> None:
        self.checkout = checkout
        self.bench_dir = os.path.dirname(os.path.abspath(__file__))
        self.src = harness.source_root(checkout)
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.passes = args.passes
        self.rundir = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also append the result, with its labels, to "
                        "this JSONL file (for perfbench/compare.py)")
    parser.add_argument("--passes", type=int, default=None,
                        help=argparse.SUPPRESS)  # engine-batch trace reference
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = os.getcwd()
    try:
        ctx = Context(args, checkout)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != harness.HASH_SEED:
        # engine-batch runs the program in this very process: pin its
        # hash seed too, by starting over with the hermetic environment.
        harness.scrub_environment(ctx.src)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)]
                 + (sys.argv[1:] if argv is None else list(argv)))
    harness.scrub_environment(ctx.src)
    # A terminated run still stops its server and removes its scratch
    # directory: SIGTERM unwinds through the workloads' finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, ctx.src)
    if args.workload == "engine-batch":
        import engine_batch as workload
    elif args.workload == "serve-open":
        import serve_open as workload
    else:
        import cli_cache as workload
    ctx.rundir = harness.RunDir(checkout, f"{args.workload}-{args.seed}")
    os.chdir(ctx.rundir.path)
    try:
        result = workload.run(ctx)
        run_labels = harness.labels()
    except harness.BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        os.chdir(checkout)
        ctx.rundir.close()
    harness.emit(
        args.workload, args.seed, ctx.trace, run_labels, result["notes"],
        correct=result["correct"], attempted=result["attempted"],
        failed=result["failed"], metrics=result["metrics"], out=args.out,
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
