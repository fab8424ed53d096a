"""Hybrid quantum-classical actor-critic trading lab.

Library-first: every capability (circuit simulation, autodiff, the trading
environment, forecasting, asynchronous training, backtest analytics,
synthetic data, plotting) is importable on its own from its submodule; the
``quantrl`` CLI (``quantrl.cli``) is a thin orchestration layer on top. See
``demos/`` for narrative scripts.

Importing the package tells glibc's allocator, for this process only, to
keep the memory it frees: see ``_keep_freed_memory``.
"""

import ctypes


def _keep_freed_memory() -> None:
    """Stop glibc from returning freed heap memory to the kernel.

    A forecaster epoch frees about 10 MB of BPTT arrays at its end. By
    default glibc trims that memory off the top of the heap, and the next
    epoch faults every page back in (about 1,100 minor faults per epoch of
    a 520-row series); arrays above its dynamic mmap threshold, such as
    the latent-8 circuit's states, are mapped and unmapped on every
    allocation (about 7,600 faults per training episode). Turning trimming
    off and raising the mmap threshold to its maximum keeps those pages in
    the process. Both are needed: setting either one freezes glibc's
    dynamic threshold, and each alone leaves one of the two patterns
    faulting. Where there is no ``mallopt`` (not glibc), nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_trim_threshold, -1)  # read as SIZE_MAX: never trim
    # glibc's largest mmap threshold, 32 MiB on 64-bit hosts; a larger
    # value is rejected and leaves the threshold dynamic
    mallopt(m_mmap_threshold, 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long))


_keep_freed_memory()

from . import (  # noqa: E402,F401
    a3c,
    diffnet,
    errors,
    experiment,
    forecaster,
    metrics,
    qsim,
    svgplot,
    synthetic,
    tradeenv,
)

__version__ = "0.1.0"
