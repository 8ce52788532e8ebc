"""The ``loop`` backend: element-at-a-time pure-Python reference kernels.

This is the executable specification the vectorized backend is validated
against: the textbook heapsort of :mod:`repro.sorting.heapsort` for local
sorts, an element-wise duel loop for the pairwise comparisons, and
two-pointer run merges for every merge step.  Nothing here is tuned — the
point is that each kernel visibly *is* the operation the paper describes,
one interpreted comparison at a time.

The merge helpers exploit the exchange-split structure: dueling an
ascending run against a descending run leaves the winners as a *mountain*
(ascending then descending) and the losers as a *valley* (descending then
ascending), each sortable by a single two-pointer pass from both ends.
"""

from __future__ import annotations

import numpy as np

from repro.faults.injectors import active_comparison
from repro.kernels.base import KernelBackend
from repro.sorting.heapsort import heapsort

__all__ = ["LoopBackend"]


def _sort_mountain(seq: list) -> list:
    """Sort an ascending-then-descending sequence with one two-ended pass."""
    n = len(seq)
    out = []
    i, j = 0, n - 1
    while i <= j:
        if seq[i] <= seq[j]:
            out.append(seq[i])
            i += 1
        else:
            out.append(seq[j])
            j -= 1
    return out


def _sort_valley(seq: list) -> list:
    """Sort a descending-then-ascending sequence with one two-ended pass."""
    n = len(seq)
    out = []
    i, j = 0, n - 1
    while i <= j:
        if seq[i] >= seq[j]:
            out.append(seq[i])
            i += 1
        else:
            out.append(seq[j])
            j -= 1
    out.reverse()
    return out


def _merge_asc(a: list, b: list) -> list:
    """Classic two-pointer merge of two ascending runs."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        if a[i] <= b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def _duel(
    a: list, b_rev: list, want_min: bool, flips=None
) -> tuple[list, list]:
    """Pairwise duel of ``a_i`` against ``b_rev_i``; winners per ``want_min``.

    ``flips`` (an optional boolean sequence from the active
    :class:`~repro.faults.injectors.ComparisonInjector`) inverts the
    ``x <= y`` verdict of the marked duels — the lying-comparator model.
    """
    winners = []
    losers = []
    for idx, (x, y) in enumerate(zip(a, b_rev)):
        verdict = x <= y
        if flips is not None and flips[idx]:
            verdict = not verdict
        small, large = (x, y) if verdict else (y, x)
        if want_min:
            winners.append(small)
            losers.append(large)
        else:
            winners.append(large)
            losers.append(small)
    return winners, losers


def _as_block(values: list, like: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=like.dtype)


class LoopBackend(KernelBackend):
    """Pure-Python reference kernels (see module docstring)."""

    name = "loop"

    # -- local sort -------------------------------------------------------

    def sort_blocks(self, blocks: np.ndarray) -> np.ndarray:
        out, _ = self.sort_blocks_counted(blocks)
        return out

    def sort_blocks_counted(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        blocks = np.asarray(blocks)
        if blocks.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {blocks.shape}")
        rows = []
        counts = np.zeros(blocks.shape[0], dtype=np.int64)
        for t in range(blocks.shape[0]):
            row, comps = heapsort(blocks[t])
            rows.append(row)
            counts[t] = comps
        stacked = (
            np.stack(rows) if rows else np.empty_like(blocks)
        )
        return stacked, counts

    # -- exchange-split ---------------------------------------------------

    def split_pair(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a_arr = np.asarray(a)
        b_arr = np.asarray(b)
        inj = active_comparison()
        if inj is not None:
            # Lying duels break the mountain/valley shape the two-pointer
            # passes rely on, so the faulty path finishes with full sorts.
            flips = inj.flip_pairs(a_arr, b_arr[::-1])
            low, high = _duel(list(a_arr), list(b_arr)[::-1], True, flips)
            return (
                np.sort(_as_block(low, a_arr), kind="stable"),
                np.sort(_as_block(high, b_arr), kind="stable"),
            )
        # Min-winners form a mountain and max-losers a valley (the
        # ascending-vs-descending pairing; see module docstring).
        low, high = _duel(list(a_arr), list(b_arr)[::-1], want_min=True)
        return (
            _as_block(_sort_mountain(low), a_arr),
            _as_block(_sort_valley(high), b_arr),
        )

    def split_blocks(
        self, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        a = np.asarray(a)
        b = np.asarray(b)
        lows = np.empty_like(a)
        highs = np.empty_like(b)
        for t in range(a.shape[0]):
            lows[t], highs[t] = self.split_pair(a[t], b[t])
        return lows, highs

    # -- SPMD compare-exchange legs --------------------------------------

    def cx_winners_losers(
        self, mine: np.ndarray, received: np.ndarray, want_min: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        mine_arr = np.asarray(mine)
        theirs = list(received)[::-1]  # descending partner run
        inj = active_comparison()
        if inj is not None:
            flips = inj.flip_pairs(mine_arr, np.asarray(received)[::-1])
            winners, losers = _duel(list(mine_arr), theirs, want_min, flips)
            return (
                np.sort(_as_block(winners, mine_arr), kind="stable"),
                np.sort(_as_block(losers, mine_arr), kind="stable"),
            )
        winners, losers = _duel(list(mine_arr), theirs, want_min=want_min)
        # Min-winners form a mountain and max-losers a valley — and vice
        # versa when the max side keeps.
        if want_min:
            return (
                _as_block(_sort_mountain(winners), mine_arr),
                _as_block(_sort_valley(losers), mine_arr),
            )
        return (
            _as_block(_sort_valley(winners), mine_arr),
            _as_block(_sort_mountain(losers), mine_arr),
        )

    def merge_runs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a_arr = np.asarray(a)
        return _as_block(_merge_asc(list(a_arr), list(np.asarray(b))), a_arr)
