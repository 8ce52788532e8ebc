"""Kernel backend interface.

A backend supplies the *execution* of the three inner kernels of the
fault-tolerant sort — local sort, exchange-split, and the SPMD
compare-exchange legs — while the callers keep full control of the cost
*accounting* (what the simulators charge follows the paper's model and is
backend-independent; only exact heapsort comparison counts are
data-dependent, and those every backend must reproduce identically).

Array conventions: blocks are 1-D float ndarrays sorted ascending; the
local sort and :meth:`KernelBackend.split_blocks` take C-contiguous 2-D
arrays with one block per row (all rows the same length).  Callers stack
every live block of a phase into one batch, however many there are.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class KernelBackend(ABC):
    """Interchangeable kernel implementations (see :mod:`repro.kernels`)."""

    #: Registry name (``"loop"`` / ``"compiled"``).
    name: str = "abstract"

    #: True when the phase engine should execute the plan's program as a
    #: flat array program instead of walking it pair by pair (see
    #: :mod:`repro.kernels.compiled`).
    schedule_compiled: bool = False

    # -- local sort -------------------------------------------------------

    @abstractmethod
    def sort_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Ascending row-wise sort of a 2-D batch (values only)."""

    @abstractmethod
    def sort_blocks_counted(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise sort plus the *exact* per-row heapsort comparison
        counts — the numbers the reference heapsort performs on this data."""

    # -- exchange-split ---------------------------------------------------

    @abstractmethod
    def split_pair(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact merge-split of two equal-length ascending blocks.

        Returns ``(low, high)``: the ``k`` smallest and ``k`` largest keys
        of the union, both ascending.
        """

    @abstractmethod
    def split_blocks(
        self, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`split_pair` over matching rows of two 2-D arrays."""

    # -- SPMD compare-exchange legs --------------------------------------

    @abstractmethod
    def cx_winners_losers(
        self, mine: np.ndarray, received: np.ndarray, want_min: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pairwise duel of the half-traffic protocol (Section 2.1 step 2).

        ``mine`` and ``received`` are equal-length ascending runs; element
        ``i`` of ``mine`` duels element ``k-1-i`` of ``received``.  Returns
        ``(winners, losers)`` — the kept and returned keys — both sorted
        ascending.
        """

    @abstractmethod
    def merge_runs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Merge two ascending runs into one ascending array (step 7(c))."""

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"<KernelBackend {self.name}>"
