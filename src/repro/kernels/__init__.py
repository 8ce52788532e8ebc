"""repro.kernels — pluggable kernels for the sorting hot paths.

The paper's cost model (Section 4) charges the three inner kernels
analytically — ``((M/N') - 1) log2(M/N') t_c`` for the local heapsort,
``2 (M/N') t_c`` per merge-split — but says nothing about how a host
*executes* them.  This package separates the two concerns exactly the way
the resilient-sorting literature does (comparison-count *model* vs kernel
*execution*): every execution engine routes its data movement through one
of two interchangeable backends:

* ``"compiled"`` (default) — the fast path.  The phase engine runs the
  whole oblivious sort as per-substage index arrays over one
  ``(workers, block)`` key matrix, built straight from the plan and
  executed as a handful of numpy ops per substage, with comparison/traffic
  accounting computed in closed form.  A phase-engine sort with a
  per-phase observer walks that same program pair by pair, and the SPMD
  machine and ``compare_split`` have no program; these run its
  vectorized kernels: batched 2-D sorts, 2-D exchange-splits, and a
  masked vectorized sift-down that reproduces the reference heapsort's
  *exact* per-block comparison counts while processing every block at
  once (see :mod:`repro.kernels.compiled`);
* ``"loop"`` — the reference path: element-at-a-time pure-Python kernels
  (the textbook heapsort, two-pointer run merges) whose behavior is
  obviously the algorithm the paper describes.  The phase engine walks
  the program pair by pair with them
  (:func:`repro.core.single_fault.run_program_interpreted`).

The backends are interchangeable by construction: identical sorted output,
identical comparison/exchange accounting, identical simulated clock (the
property tests in ``tests/kernels/`` enforce all three).  The ``loop``
backend is the executable specification; ``compiled`` is what production
runs use, and ``benchmarks/test_kernels_speedup.py`` tracks its speedups
in ``BENCH_kernels.json``.

Selecting a backend
-------------------
Every entry point takes a ``kernels=`` argument (a backend name or
instance); ``None`` falls back to the process default, which is the
``REPRO_KERNELS`` environment variable when it names a backend, else
``"compiled"``.  The CLI exposes ``repro sort/trace/submit ...
--kernels loop|compiled``.  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import os

from repro.kernels.base import KernelBackend
from repro.kernels.compiled import CompiledBackend
from repro.kernels.loop import LoopBackend

__all__ = [
    "CompiledBackend",
    "KernelBackend",
    "LoopBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "resolve_backend",
]

_BACKENDS: dict[str, KernelBackend] = {
    "loop": LoopBackend(),
    "compiled": CompiledBackend(),
}


def available_backends() -> tuple[str, ...]:
    """Names of the registered kernel backends."""
    return tuple(sorted(_BACKENDS))


def default_backend_name() -> str:
    """The name resolved when callers pass ``kernels=None``."""
    name = os.environ.get("REPRO_KERNELS", "compiled")
    return name if name in _BACKENDS else "compiled"


def get_backend(name: str) -> KernelBackend:
    """The registered backend called ``name`` (``'loop'`` or ``'compiled'``)."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        ) from None


def resolve_backend(spec: "KernelBackend | str | None") -> KernelBackend:
    """Resolve a ``kernels=`` argument to a backend instance.

    ``None`` → the process default; a string → :func:`get_backend`; an
    instance passes through unchanged.
    """
    if spec is None:
        return _BACKENDS[default_backend_name()]
    if isinstance(spec, KernelBackend):
        return spec
    return get_backend(spec)
