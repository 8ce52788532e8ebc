"""Tests for repro.core.blocks — padding and chunking helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.blocks import PAD_KEY, pad_and_chunk, strip_padding


class TestPadAndChunk:
    def test_exact_division(self):
        chunks, block = pad_and_chunk(np.arange(8.0), 4)
        assert block == 2
        assert [c.tolist() for c in chunks] == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_padding_fills_tail(self):
        chunks, block = pad_and_chunk(np.arange(5.0), 3)
        assert block == 2
        flat = np.concatenate(chunks)
        assert flat[:5].tolist() == [0, 1, 2, 3, 4]
        assert np.isinf(flat[5:]).all()

    def test_paper_figure6_distribution(self):
        # 47 keys over 24 workers: blocks of 2, one dummy key.
        chunks, block = pad_and_chunk(np.arange(47.0), 24)
        assert block == 2
        assert sum(np.isinf(c).sum() for c in chunks) == 1

    def test_empty_keys(self):
        chunks, block = pad_and_chunk([], 4)
        assert block == 0
        assert all(c.size == 0 for c in chunks)

    def test_fewer_keys_than_workers(self):
        chunks, block = pad_and_chunk([1.0, 2.0], 5)
        assert block == 1
        assert sum(np.isinf(c).sum() for c in chunks) == 3

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            pad_and_chunk([1.0], 0)

    def test_rejects_inf_keys(self):
        for bad in (PAD_KEY, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                pad_and_chunk([1.0, bad], 2)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            pad_and_chunk(np.zeros((2, 2)), 2)

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=100),
        st.integers(1, 16),
    )
    def test_roundtrip_property(self, keys, workers):
        chunks, block = pad_and_chunk(keys, workers)
        assert len(chunks) == workers
        assert all(c.size == block for c in chunks)
        flat = np.concatenate(chunks)
        finite = flat[np.isfinite(flat)]
        assert sorted(finite.tolist()) == sorted(float(k) for k in keys)


class TestStripPadding:
    def test_strips_tail(self):
        out = strip_padding(np.array([1.0, 2.0, np.inf, np.inf]), 2)
        assert out.tolist() == [1.0, 2.0]

    def test_noop_when_exact(self):
        out = strip_padding(np.array([1.0, 2.0]), 2)
        assert out.tolist() == [1.0, 2.0]

    def test_detects_misplaced_real_keys(self):
        with pytest.raises(ValueError):
            strip_padding(np.array([1.0, np.inf, 2.0]), 1)

    def test_detects_short_output(self):
        with pytest.raises(ValueError):
            strip_padding(np.array([1.0]), 2)
