"""Property tests: the compiled and loop backends are indistinguishable.

The contract of :mod:`repro.kernels` is that backend choice changes
*execution strategy only*: sorted outputs are byte-identical and every
comparison/traffic count is identical.  Hypothesis drives both backends'
kernels over random batch shapes (pinned examples add a one-row batch,
widths 0 and 1, and rows whose comparison counts differ), and a small
end-to-end fault-tolerant sort pins the whole-pipeline statement.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.ftsort import fault_tolerant_sort
from repro.kernels import get_backend
from repro.kernels.compiled import heapsort_batch
from repro.sorting.heapsort import heapsort

COMPILED = get_backend("compiled")
LOOP = get_backend("loop")

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32)
blocks_strategy = st.lists(
    st.lists(finite, min_size=1, max_size=24), min_size=1, max_size=10
).map(lambda rows: [np.asarray(r, dtype=float) for r in rows])

#: Batches the strategy draws rarely or never: one row, and widths 0 and 1.
ONE_ROW = [np.asarray([5.0, -1.0, 3.0, 3.0, 0.5, 2.0, 7.0])]
WIDTH_ZERO = [np.empty(0)] * 3
WIDTH_ONE = [np.asarray([4.0]), np.asarray([-2.0]), np.asarray([0.0])]
#: Rows whose heapsort counts differ (16 and 14): a per-row count mix-up
#: shows on every run, not only when the strategy happens to draw one.
COUNTS_DIFFER = [np.arange(1.0, 7.0), np.arange(6.0, 0.0, -1.0)]


def _equalize(rows: list[np.ndarray]) -> np.ndarray:
    width = min(len(r) for r in rows)
    return np.stack([r[:width] for r in rows])


class TestLocalSortParity:
    @example(blocks=ONE_ROW)
    @example(blocks=WIDTH_ZERO)
    @example(blocks=WIDTH_ONE)
    @example(blocks=COUNTS_DIFFER)
    @given(blocks=blocks_strategy)
    def test_batched_sort_matches_loop_and_scalar(self, blocks):
        batch = _equalize(blocks)
        out_c, comps_c = COMPILED.sort_blocks_counted(batch)
        out_loop, comps_loop = LOOP.sort_blocks_counted(batch)
        assert out_c.shape == out_loop.shape == batch.shape
        np.testing.assert_array_equal(out_c, out_loop)
        np.testing.assert_array_equal(comps_c, comps_loop)
        for t in range(batch.shape[0]):
            row, comps = heapsort(batch[t])
            np.testing.assert_array_equal(out_c[t], row)
            assert int(comps_c[t]) == comps

    @example(blocks=ONE_ROW)
    @example(blocks=WIDTH_ZERO)
    @example(blocks=WIDTH_ONE)
    @given(blocks=blocks_strategy)
    def test_values_only_sort_matches(self, blocks):
        batch = _equalize(blocks)
        out_c = COMPILED.sort_blocks(batch)
        assert out_c.shape == batch.shape
        np.testing.assert_array_equal(out_c, LOOP.sort_blocks(batch))
        np.testing.assert_array_equal(out_c, np.sort(batch, axis=1))

    def test_heapsort_batch_handles_width_zero_and_one(self):
        for width in (0, 1):
            batch = np.zeros((3, width))
            out, comps = heapsort_batch(batch)
            assert out.shape == batch.shape
            assert comps.tolist() == [0, 0, 0]


class TestSplitParity:
    @given(
        data=st.lists(finite, min_size=2, max_size=48).filter(lambda v: len(v) % 2 == 0)
    )
    def test_split_pair_matches(self, data):
        half = len(data) // 2
        a = np.sort(np.asarray(data[:half], dtype=float))
        b = np.sort(np.asarray(data[half:], dtype=float))
        low_c, high_c = COMPILED.split_pair(a, b)
        low_loop, high_loop = LOOP.split_pair(a, b)
        np.testing.assert_array_equal(low_c, low_loop)
        np.testing.assert_array_equal(high_c, high_loop)
        # Exchange-split lemma: low holds the k smallest of the union.
        union = np.sort(np.concatenate([a, b]))
        np.testing.assert_array_equal(low_c, union[:half])
        np.testing.assert_array_equal(high_c, union[half:])

    @given(blocks=blocks_strategy)
    def test_split_blocks_matches_per_pair(self, blocks):
        batch = _equalize(blocks)
        if batch.shape[0] < 2:
            batch = np.vstack([batch, batch])
        half = batch.shape[0] // 2
        a = np.sort(batch[:half], axis=1)
        b = np.sort(batch[half : 2 * half], axis=1)
        lows_c, highs_c = COMPILED.split_blocks(a, b)
        lows_loop, highs_loop = LOOP.split_blocks(a, b)
        np.testing.assert_array_equal(lows_c, lows_loop)
        np.testing.assert_array_equal(highs_c, highs_loop)

    @given(
        data=st.lists(finite, min_size=2, max_size=48).filter(lambda v: len(v) % 2 == 0),
        want_min=st.booleans(),
    )
    def test_cx_winners_losers_matches(self, data, want_min):
        half = len(data) // 2
        mine = np.sort(np.asarray(data[:half], dtype=float))
        received = np.sort(np.asarray(data[half:], dtype=float))
        w_c, l_c = COMPILED.cx_winners_losers(mine, received, want_min)
        w_loop, l_loop = LOOP.cx_winners_losers(mine, received, want_min)
        np.testing.assert_array_equal(w_c, w_loop)
        np.testing.assert_array_equal(l_c, l_loop)

    @given(
        a=st.lists(finite, min_size=0, max_size=24),
        b=st.lists(finite, min_size=0, max_size=24),
    )
    def test_merge_runs_matches(self, a, b):
        run_a = np.sort(np.asarray(a, dtype=float))
        run_b = np.sort(np.asarray(b, dtype=float))
        np.testing.assert_array_equal(
            COMPILED.merge_runs(run_a, run_b), LOOP.merge_runs(run_a, run_b)
        )


class TestEndToEndParity:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=4),
        keys=st.integers(min_value=0, max_value=120),
        exact=st.booleans(),
    )
    def test_ftsort_identical_across_backends(self, seed, n, keys, exact):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(0, n))
        faults = sorted(rng.choice(1 << n, size=r, replace=False).tolist())
        key_arr = rng.integers(0, 10**6, size=keys).astype(float)
        results = {
            name: fault_tolerant_sort(
                key_arr, n, faults, exact_counts=exact, kernels=name
            )
            for name in ("compiled", "loop")
        }
        a, b = results["compiled"], results["loop"]
        np.testing.assert_array_equal(a.sorted_keys, b.sorted_keys)
        np.testing.assert_array_equal(a.sorted_keys, np.sort(key_arr))
        assert a.elapsed == b.elapsed
        assert a.output_order == b.output_order
        for addr in a.output_order:
            np.testing.assert_array_equal(
                a.machine.get_block(addr), b.machine.get_block(addr)
            )
