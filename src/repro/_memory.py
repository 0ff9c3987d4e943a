"""Process memory policy: set once at ``import repro``, inherited by fork.

glibc serves a block above its mmap threshold (128 KB, creeping to a few
hundred KB) as an mmap/munmap pair, so every MB-sized NumPy temporary is
mapped and zero-faulted again on each BFS level.  At glibc's maximum
threshold such blocks are recycled from the heap, and the trim threshold
keeps the freed heap top between calls (DESIGN §1.2, ``BENCH_23.json``).
A process about to fork pool workers hands that kept heap back first
(:func:`release`), so the workers do not start as copies of it.
"""

import ctypes
import os

# brandes32, R-MAT 13: 8 312 -> 5 minor faults and 87 -> 70 ms per call.
# Either one alone, or a *fixed* 1 MB, is worse than glibc's dynamic default.
MMAP_THRESHOLD = 32 << 20  # the largest value glibc accepts
TRIM_THRESHOLD = 64 << 20  # freed heap top an arena keeps
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # <malloc.h>


def _libc(name: str):
    """A libc function, or ``None`` (musl stub, macOS, Windows)."""
    try:
        return getattr(ctypes.CDLL(None), name)
    except (OSError, AttributeError, TypeError):
        return None


def apply() -> bool:
    """``False`` = nothing set: no ``mallopt`` (musl stub, macOS, Windows)
    or the operator already chose through glibc's own variables."""
    if os.environ.keys() & {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"}:
        return False
    mallopt = _libc("mallopt")
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )


def release() -> bool:
    """Return every arena's freed heap to the OS (``malloc_trim(0)``);
    ``False`` where there is no ``malloc_trim`` or nothing was freed."""
    trim = _libc("malloc_trim")
    if trim is None:
        return False
    trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
    return bool(trim(0))
