"""The command-line entry: ``python -m citegap`` and the ``citegap``
console script both call :func:`run`.

The commands keep every BLAS product small enough that OpenBLAS runs it
on the calling thread (``imbalance._PANEL_WORK``), so its thread pool
is start-up work that buys nothing: one thread is the CLI's default.
OpenBLAS reads its thread count from the first of ``BLAS_THREAD_ENV``
that is set, so a user who sets any of them keeps that choice.  Library
callers are not touched.
"""
import os
import sys

BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run() -> int:
    if not any(name in os.environ for name in BLAS_THREAD_ENV):
        # before numpy is first imported, which is when OpenBLAS starts
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main
    return main()


if __name__ == "__main__":
    sys.exit(run())
