"""OpenBLAS thread control for the scoring pool, through stdlib ``ctypes``.

Every scoring process runs its GEMMs on the OpenBLAS that numpy loaded,
and OpenBLAS sizes its thread pool to every usable core.  N pool
workers on C cores then run N x C BLAS threads and oversubscribe the
CPU.  :class:`~repro.serving.ShardedScorerPool` therefore gives each
worker a budget of ``max(1, usable_cores() // num_workers)`` threads,
applied at worker start with :func:`limit_blas_threads`.

The functions are resolved through numpy's ``_multiarray_umath``
extension, whose handle also finds the symbols of the OpenBLAS it links.
Builds spell them four ways: ``scipy_openblas_*_num_threads64_`` and
``scipy_openblas_*_num_threads`` (numpy 2 wheels), and
``openblas_*_num_threads64_`` and ``openblas_*_num_threads`` (numpy 1.x
wheels and system builds).  Where none resolves (MKL, Accelerate, no
BLAS) every call here is a no-op that reports ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import os

__all__ = ["blas_threads", "limit_blas_threads", "usable_cores"]

_SPELLINGS = (("scipy_openblas", "64_"), ("scipy_openblas", ""),
              ("openblas", "64_"), ("openblas", ""))


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity), at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no sched_getaffinity on this platform
        return max(1, os.cpu_count() or 1)


@functools.cache
def _openblas():
    """``(get, set, shutdown)`` functions of numpy's OpenBLAS, or None.

    ``shutdown`` stops the library's thread pool (the handler OpenBLAS
    itself runs before a fork); it is None where the build hides it.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        library = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix, suffix in _SPELLINGS:
        try:
            get = getattr(library, f"{prefix}_get_num_threads{suffix}")
            put = getattr(library, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        shutdown = getattr(library, "blas_thread_shutdown_", None)
        if shutdown is not None:
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
        return get, put, shutdown
    return None


def blas_threads() -> int | None:
    """OpenBLAS's current thread count (None: no OpenBLAS resolved)."""
    functions = _openblas()
    return None if functions is None else int(functions[0]())


def limit_blas_threads(budget: int) -> int | None:
    """Lower the OpenBLAS thread count to ``budget``; never raise it.

    A count the operator already lowered (``OPENBLAS_NUM_THREADS``,
    ``OMP_NUM_THREADS``) stays.  Returns the count read back.

    Setting the count starts OpenBLAS's thread pool (in a forked child it
    rebuilds the pool the fork tore down), and each idle pool thread then
    spins for ~0.1 s of CPU.  The pool is therefore shut down again at
    once; OpenBLAS restarts it when a call needs more than one thread.
    Call this before other threads of the process run BLAS, as pool
    workers do first thing.
    """
    functions = _openblas()
    if functions is None:
        return None
    get, put, shutdown = functions
    if get() > budget:
        put(budget)
        if shutdown is not None:
            shutdown()
    return int(get())
