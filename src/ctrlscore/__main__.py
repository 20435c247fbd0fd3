"""Entry point of ``python -m ctrlscore`` and of the installed ``ctrlscore``
script.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when it loads, and starts its
worker threads then.  Two copies load in a CLI process: numpy's
(``numpy.libs/libscipy_openblas64_``) at the first numpy import, and scipy's
(``scipy.libs/libscipy_openblas``) when a ``dense_lti`` model needs the
Schur factor.  :func:`run` sets the variable to 1 before either loads, which
the package allows because ``import ctrlscore`` imports no numpy; so neither
copy starts a thread that would spin-wait beside a small command.  A count
that the environment sets already is kept.

Output that stdout could not take because its reader has gone (``| head``)
ends the process quietly with ``cli.EXIT_BROKEN_PIPE``: :func:`run` flushes
stdout itself, and where that fails, points it at ``os.devnull`` so that
the flush at exit cannot fail again and print a traceback.
"""

import os
import sys


def run() -> int:
    """Run the CLI on ``sys.argv`` with every OpenBLAS on one thread, unless
    ``OPENBLAS_NUM_THREADS`` is set already.

    Meant to start a process: a BLAS that is already loaded keeps its
    threads, and the variable stays set for the rest of the process.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
