"""Kernel-tier dispatch: numpy reference tier vs. opt-in compiled tier.

Every hot kernel registers here under one name with its numpy
reference implementation and (optionally) a compiled variant backed by
:mod:`repro.kernels._compiled`.  Call sites resolve a *tier* per call:

``"numpy"``
    the pure-numpy reference — always available, always the oracle;
``"compiled"``
    the numba ``njit`` variant — bit-identical by construction
    (DESIGN §9); silently becomes ``"numpy"`` (with a one-time
    :class:`RuntimeWarning`) when numba is not installed;
``"auto"`` (the default)
    ``"compiled"`` iff numba is importable *and* the call's size hint
    meets the crossover threshold — tiny inputs stay on numpy where
    dispatch overhead beats JIT'd loops.

Resolution order for an unset tier (``None``): the ambient
:func:`use_tier` context > the ``REPRO_KERNEL_TIER`` environment
variable > ``"auto"``.  :meth:`ParallelContext.tier_for
<repro.parallel.runtime.ParallelContext.tier_for>` layers the
context's ``kernel_tier`` setting on top and counts what actually ran.

The crossover threshold (element/arc count) defaults to
:data:`DEFAULT_CROSSOVER` and is tunable via ``REPRO_KERNEL_CROSSOVER``
or :func:`set_crossover`.

First compiled-tier resolution triggers :func:`warmup` — every
registered kernel is JIT-compiled once on tiny typed inputs, so
per-query latency never pays compile time (``repro profile`` and the
benchmarks invoke it eagerly).
"""

from __future__ import annotations

import contextvars
import os
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

from repro.kernels import _compiled

__all__ = [
    "TIERS",
    "DEFAULT_CROSSOVER",
    "numba_available",
    "resolve_tier",
    "use_tier",
    "crossover",
    "set_crossover",
    "register",
    "call",
    "kernels_registered",
    "warmup",
    "signature_counts",
]

TIERS = ("auto", "numpy", "compiled")

#: Default size (element/arc count) below which ``"auto"`` stays numpy.
DEFAULT_CROSSOVER = 4096

_ambient_tier: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_kernel_tier", default=None
)

_crossover_override: Optional[int] = None
_WARMED = False
_WARNED_MISSING = False


def numba_available() -> bool:
    """True when the compiled tier is actually backed by numba."""
    return _compiled.HAVE_NUMBA


def crossover() -> int:
    """Current auto-tier crossover threshold (element/arc count)."""
    if _crossover_override is not None:
        return _crossover_override
    env = os.environ.get("REPRO_KERNEL_CROSSOVER")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring non-integer REPRO_KERNEL_CROSSOVER={env!r}",
                RuntimeWarning,
                stacklevel=2,
            )
    return DEFAULT_CROSSOVER


def set_crossover(value: Optional[int]) -> None:
    """Override the crossover threshold in-process (``None`` restores)."""
    global _crossover_override
    _crossover_override = None if value is None else max(0, int(value))


class use_tier:
    """Context manager pinning the ambient kernel tier.

    ``with use_tier("compiled"): ...`` routes every tier resolution in
    the block (that has no more specific override) to the given tier.
    """

    def __init__(self, tier: Optional[str]) -> None:
        if tier is not None and tier not in TIERS:
            raise ValueError(f"tier must be one of {TIERS} or None")
        self.tier = tier
        self._token = None

    def __enter__(self) -> "use_tier":
        self._token = _ambient_tier.set(self.tier)
        return self

    def __exit__(self, *exc) -> None:
        _ambient_tier.reset(self._token)


def _warn_missing_numba() -> None:
    global _WARNED_MISSING
    if not _WARNED_MISSING:
        _WARNED_MISSING = True
        warnings.warn(
            "kernel_tier='compiled' requested but numba is not installed; "
            "falling back to the numpy tier (pip install repro[compiled])",
            RuntimeWarning,
            stacklevel=4,
        )


def resolve_tier(tier: Optional[str] = None, size: Optional[int] = None) -> str:
    """Resolve a tier request to the tier that will actually run.

    ``tier=None`` consults the ambient :func:`use_tier` setting, then
    ``REPRO_KERNEL_TIER``, then defaults to ``"auto"``.  ``size`` is
    the call's element/arc count for the auto crossover (``None`` is
    treated as large).  Returns ``"numpy"`` or ``"compiled"``; the
    first compiled resolution warms up the JIT cache.
    """
    if tier is None:
        tier = _ambient_tier.get() or os.environ.get("REPRO_KERNEL_TIER") or "auto"
    if tier not in TIERS:
        raise ValueError(f"kernel tier must be one of {TIERS}, got {tier!r}")
    if tier == "numpy":
        return "numpy"
    if tier == "auto":
        if not numba_available():
            return "numpy"
        if size is not None and size < crossover():
            return "numpy"
    elif not numba_available():  # explicit "compiled" without numba
        _warn_missing_numba()
        return "numpy"
    if not _WARMED:
        warmup()
    return "compiled"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Kernel:
    """One registered kernel: reference + optional compiled variant.

    ``numpy_fn`` may be ``None`` for kernels whose numpy path is
    inlined in the owning algorithm (the Brandes accumulation); such
    entries exist for warm-up and introspection, and the algorithm
    branches on the resolved tier itself.  ``warmup_fn`` invokes the compiled variant on tiny typed
    inputs covering every dtype specialization it is dispatched with.
    """

    name: str
    numpy_fn: Optional[Callable]
    compiled_fn: Optional[Callable]
    warmup_fn: Optional[Callable]


_REGISTRY: dict[str, Kernel] = {}


def register(
    name: str,
    numpy_fn: Optional[Callable] = None,
    compiled_fn: Optional[Callable] = None,
    warmup: Optional[Callable] = None,
) -> None:
    """Register (or re-register) a kernel's tier variants."""
    _REGISTRY[name] = Kernel(name, numpy_fn, compiled_fn, warmup)


def kernels_registered() -> tuple[str, ...]:
    """Names of all registered kernels (warm-up coverage check)."""
    _import_kernel_modules()
    return tuple(sorted(_REGISTRY))


def call(name: str, *args, tier: Optional[str] = None,
         size: Optional[int] = None, **kwargs):
    """Invoke a registered kernel on the resolved tier.

    The compiled variant is used only when the tier resolves to
    ``"compiled"`` and a compiled variant exists; a compiled variant
    may itself decline unsupported dtypes by returning ``NotImplemented``,
    which falls through to the numpy reference.
    """
    kernel = _REGISTRY[name]
    if kernel.compiled_fn is not None and resolve_tier(tier, size) == "compiled":
        out = kernel.compiled_fn(*args, **kwargs)
        if out is not NotImplemented:
            return out
    return kernel.numpy_fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Warm-up
# ---------------------------------------------------------------------------
def _import_kernel_modules() -> None:
    """Import every module that registers kernels (idempotent)."""
    import repro.centrality.betweenness  # noqa: F401
    import repro.community.pla  # noqa: F401
    import repro.kernels.segments  # noqa: F401


def warmup(force: bool = False) -> int:
    """Pre-compile every registered njit kernel on tiny inputs.

    Returns the number of warm-up routines invoked (0 without numba —
    there is nothing to compile).  Idempotent per process unless
    ``force=True``; invoked lazily by the first compiled-tier
    resolution and eagerly by ``repro profile`` and the benchmarks.
    """
    global _WARMED
    if _WARMED and not force:
        return 0
    # Set the flag before running: warm-up bodies may themselves hit
    # resolve_tier and must not recurse into warmup.
    _WARMED = True
    if not numba_available():
        return 0
    _import_kernel_modules()
    n = 0
    for kernel in _REGISTRY.values():
        if kernel.warmup_fn is not None:
            kernel.warmup_fn()
            n += 1
    return n


def signature_counts() -> dict:
    """Per-kernel compiled specialization counts (see ``_compiled``)."""
    return _compiled.signature_counts()
