"""The ``ionlight`` process: ``python -m ionlight`` and the installed script.

numpy's bundled OpenBLAS starts one helper thread per extra CPU when numpy
loads, and each helper spins for tens of milliseconds of CPU whether or not
a BLAS call follows.  A command's BLAS operands are at most 12 x 12 matrices,
below the size at which OpenBLAS splits a call across threads, and the
oracle sums its sector vectors with numpy's own pairwise sums, so no digit
depends on the thread count; one thread only saves the helper's CPU.  The
process runs OpenBLAS on one thread unless the user's own
``OPENBLAS_NUM_THREADS`` says otherwise.  The setting must precede the first
numpy import, so it is made here, before :mod:`ionlight.cli` is imported, and
never by ``import ionlight`` or :func:`ionlight.cli.main`, which library
callers run in their own processes.  This module is the one process entry.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (after the setting above)

if __name__ == "__main__":
    raise SystemExit(main())
