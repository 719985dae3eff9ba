"""The command-line entry: ``python -m citegap`` and the ``citegap``
console script both call :func:`run`.

The commands keep every BLAS product small enough that OpenBLAS runs it
on the calling thread (``imbalance._PANEL_WORK``), so its thread pool
is start-up work that buys nothing: one thread is the CLI's default.
OpenBLAS reads its thread count from the first of ``BLAS_THREAD_ENV``
that is set, so a user who sets any of them keeps that choice.

A command is one short process that keeps its data in numpy arrays,
which form no reference cycles; the cycles it leaves (the argument
parser, closures) are a few hundred objects, freed when the process
ends.  So the entry turns the cyclic garbage collector off before numpy
is imported, and freezes the heap when the command returns or exits,
which leaves the collection the interpreter runs at shutdown nothing to
traverse.

Library callers, :func:`citegap.cli.main` called in-process included,
are not touched: they keep the environment and the collector as they
find them.
"""
import gc
import os
import sys

BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run() -> int:
    if not any(name in os.environ for name in BLAS_THREAD_ENV):
        # before numpy is first imported, which is when OpenBLAS starts
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    gc.disable()
    try:
        from .cli import main
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
