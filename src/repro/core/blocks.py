"""Key distribution and collection helpers shared by the sorting drivers.

The paper distributes ``M`` unsorted keys uniformly over the ``N'`` working
processors, filling with dummy ``+inf`` keys when ``M`` is not a multiple of
``N'`` (Section 2.1; its Fig.-6 walkthrough rounds 47 keys up to 48).  The
dummies are real keys to the oblivious network — they travel and get
compared — and, being maximal, finish at the tail of the sorted order where
:func:`strip_padding` drops them.
"""

from __future__ import annotations

import numpy as np

from repro.faults.injectors import active_memory

__all__ = ["checked_keys", "pad_and_chunk", "strip_padding", "PAD_KEY"]

PAD_KEY = np.inf
"""The dummy key (the paper's ``infinity``)."""


def checked_keys(keys: np.ndarray | list, workers: int) -> tuple[np.ndarray, int]:
    """``keys`` as a 1-D float array, and the block size of ``workers``
    equal chunks of them, ``ceil(M / workers)`` (0 when there are no
    keys).  Raises if ``workers <= 0`` or any key is not finite.
    """
    if workers <= 0:
        raise ValueError(f"need at least one working processor, got {workers}")
    arr = np.asarray(keys, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"keys must be 1-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("keys must be finite (+inf is reserved for padding)")
    return arr, -(-int(arr.size) // workers)  # ceil division


def pad_and_chunk(keys: np.ndarray | list, workers: int) -> tuple[np.ndarray, int]:
    """Split ``keys`` into ``workers`` equal chunks, padding with ``+inf``.

    Returns ``(chunks, block_size)`` where ``chunks`` is one freshly
    allocated ``(workers, block_size)`` float matrix whose rows are the
    unsorted chunks, and ``block_size`` is :func:`checked_keys`'s.  Raises
    as :func:`checked_keys` does.
    """
    arr, block = checked_keys(keys, workers)
    m = int(arr.size)
    padded = np.full(workers * block, PAD_KEY, dtype=float)
    padded[:m] = arr
    inj = active_memory()
    if inj is not None:
        # Memory fault universe: corrupt cells at the single point where
        # every driver materializes its working store (only the real keys;
        # pads are control structure, not data).
        inj.corrupt(padded, m)
    return padded.reshape(workers, block), block


def strip_padding(sorted_keys: np.ndarray, original_count: int) -> np.ndarray:
    """Drop the trailing dummy keys from an ascending sorted array."""
    arr = np.asarray(sorted_keys)
    if arr.size < original_count:
        raise ValueError(
            f"sorted output has {arr.size} keys but {original_count} were supplied"
        )
    tail = arr[original_count:]
    if tail.size and not np.isinf(tail).all():
        raise ValueError("non-padding keys found beyond the original count; sort is broken")
    return arr[:original_count]
