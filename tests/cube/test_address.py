"""Tests for repro.cube.address — bit-level address algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cube.address import (
    bit_of,
    clear_bit,
    flip_bit,
    from_bits,
    gray_code,
    gray_rank,
    hamming_distance,
    hamming_weight,
    popcount_array,
    set_bit,
    to_bits,
    validate_address,
    validate_dimension,
)


class TestValidation:
    def test_dimension_accepts_range(self):
        for n in (0, 1, 6, 24):
            assert validate_dimension(n) == n

    def test_dimension_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_dimension(-1)

    def test_dimension_rejects_huge(self):
        with pytest.raises(ValueError):
            validate_dimension(25)

    def test_dimension_rejects_non_int(self):
        with pytest.raises(TypeError):
            validate_dimension(3.0)

    def test_dimension_accepts_numpy_int(self):
        assert validate_dimension(np.int64(5)) == 5

    def test_address_in_range(self):
        assert validate_address(0, 3) == 0
        assert validate_address(7, 3) == 7

    def test_address_out_of_range(self):
        with pytest.raises(ValueError):
            validate_address(8, 3)
        with pytest.raises(ValueError):
            validate_address(-1, 3)

    def test_address_rejects_float(self):
        with pytest.raises(TypeError):
            validate_address(1.5, 3)


class TestBitOps:
    def test_bit_of(self):
        assert bit_of(0b1010, 1) == 1
        assert bit_of(0b1010, 0) == 0
        assert bit_of(0b1010, 3) == 1

    def test_set_clear_flip_roundtrip(self):
        a = 0b0110
        assert set_bit(a, 0) == 0b0111
        assert clear_bit(a, 1) == 0b0100
        assert flip_bit(flip_bit(a, 2), 2) == a

    def test_flip_changes_exactly_one_bit(self):
        for d in range(5):
            assert hamming_distance(13, flip_bit(13, d)) == 1


class TestHamming:
    def test_weight_examples(self):
        assert hamming_weight(0) == 0
        assert hamming_weight(0b1011) == 3
        assert hamming_weight((1 << 20) - 1) == 20

    def test_weight_rejects_negative(self):
        with pytest.raises(ValueError):
            hamming_weight(-3)

    def test_distance_symmetric(self):
        assert hamming_distance(0b0011, 0b0101) == 2
        assert hamming_distance(0b0101, 0b0011) == 2

    def test_distance_identity(self):
        assert hamming_distance(42, 42) == 0

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_distance_triangle_inequality(self, a, b, c):
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_distance_is_weight_of_xor(self, a, b):
        assert hamming_distance(a, b) == hamming_weight(a ^ b)


class TestPopcountArray:
    def test_matches_scalar(self, rng):
        vals = rng.integers(0, 2**20, size=256)
        out = popcount_array(vals)
        assert out.tolist() == [hamming_weight(int(v)) for v in vals]

    def test_all_64_bits(self, rng):
        vals = rng.integers(0, 2**63 - 1, size=256, dtype=np.int64)
        assert popcount_array(vals).tolist() == [hamming_weight(int(v)) for v in vals]
        words = np.array([0, 1, 2**63, 2**64 - 1, 0x8000000000000001], dtype=np.uint64)
        assert popcount_array(words).tolist() == [0, 1, 1, 64, 2]

    def test_rejects_float_array(self):
        with pytest.raises(TypeError):
            popcount_array(np.array([1.0, 2.0]))

    def test_empty(self):
        assert popcount_array(np.array([], dtype=np.int64)).size == 0


class TestBitsConversion:
    def test_to_bits_msb_first(self):
        # Paper notation u_{n-1} ... u_0: index 0 is the MSB.
        assert to_bits(0b01101, 5) == (0, 1, 1, 0, 1)

    def test_from_bits_inverse(self):
        for a in range(32):
            assert from_bits(to_bits(a, 5)) == a

    def test_from_bits_rejects_non_binary(self):
        with pytest.raises(ValueError):
            from_bits((0, 2, 1))

    @given(st.integers(0, 2**10 - 1))
    def test_roundtrip_property(self, a):
        assert from_bits(to_bits(a, 10)) == a


class TestGray:
    def test_first_codes(self):
        assert [gray_code(i) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]

    def test_adjacent_codes_differ_in_one_bit(self):
        for i in range(255):
            assert hamming_distance(gray_code(i), gray_code(i + 1)) == 1

    def test_gray_is_bijection_on_range(self):
        codes = {gray_code(i) for i in range(256)}
        assert codes == set(range(256))

    @given(st.integers(0, 2**20))
    def test_rank_inverts_code(self, i):
        assert gray_rank(gray_code(i)) == i

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gray_code(-1)
        with pytest.raises(ValueError):
            gray_rank(-1)
