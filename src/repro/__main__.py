"""``python -m repro`` entry point — see :mod:`repro.cli`."""

import os
import sys

from .cli import main

if __name__ == "__main__":
    try:
        code = main()
        # Flush inside the try, so a reader that went away early (for
        # example ``| head``) surfaces here and not at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The recipe from the ``signal`` module's documentation: point
        # stdout at devnull so the flush at exit cannot raise again,
        # then exit non-zero as an interrupted writer should.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
