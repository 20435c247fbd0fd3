"""Entry point of ``python -m ctrlscore`` and of the installed ``ctrlscore``
script.

:func:`run` imports :mod:`ctrlscore.cli` before anything loads numpy, so the
CLI's one-thread BLAS default reaches both OpenBLAS copies (see ``cli``).

Output that stdout could not take because its reader has gone (``| head``)
ends the process quietly with ``cli.EXIT_BROKEN_PIPE``: :func:`run` flushes
stdout itself, and where that fails, points it at ``os.devnull`` so that
the flush at exit cannot fail again and print a traceback.
"""

import os
import sys


def run() -> int:
    """Run the CLI on ``sys.argv``."""
    from .cli import EXIT_BROKEN_PIPE, main

    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(run())
