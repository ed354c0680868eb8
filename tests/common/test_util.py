"""Alignment helpers (repro.common.util)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.util import (
    align_down,
    align_up,
    human_bytes,
    is_aligned,
    is_power_of_two,
    round_up_pow2,
    size_to_order,
)


class TestPowerOfTwo:
    def test_powers(self):
        for n in (1, 2, 4, 1024, 1 << 40):
            assert is_power_of_two(n)

    def test_non_powers(self):
        for n in (0, 3, 6, 12, 1000, -4):
            assert not is_power_of_two(n)

    def test_round_up_identity_on_powers(self):
        assert round_up_pow2(8) == 8

    def test_round_up(self):
        assert round_up_pow2(9) == 16
        assert round_up_pow2(1) == 1

    def test_round_up_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            round_up_pow2(0)

    @given(st.integers(min_value=1, max_value=1 << 48))
    def test_round_up_properties(self, n):
        r = round_up_pow2(n)
        assert is_power_of_two(r)
        assert r >= n
        assert r < 2 * n


class TestAlign:
    def test_align_down(self):
        assert align_down(4097, 4096) == 4096

    def test_align_up(self):
        assert align_up(4097, 4096) == 8192

    def test_aligned_values_unchanged(self):
        assert align_down(8192, 4096) == 8192
        assert align_up(8192, 4096) == 8192

    def test_is_aligned(self):
        assert is_aligned(8192, 4096)
        assert not is_aligned(8193, 4096)

    def test_non_power_alignment_rejected(self):
        with pytest.raises(ValueError):
            align_up(5, 3)

    @pytest.mark.parametrize("helper", [align_down, align_up, is_aligned])
    @pytest.mark.parametrize("alignment", [0, -1, -4096, 3, 12, 4095, 4097])
    def test_every_helper_rejects_bad_alignments(self, helper, alignment):
        with pytest.raises(ValueError, match="alignment must be a power of two"):
            helper(8192, alignment)

    @given(st.integers(min_value=-(1 << 50), max_value=1 << 50),
           st.sampled_from([1 << k for k in range(0, 40)]))
    def test_is_aligned_matches_modulo(self, value, alignment):
        assert is_aligned(value, alignment) == (value % alignment == 0)

    @given(st.integers(min_value=0, max_value=1 << 50),
           st.sampled_from([1 << k for k in range(1, 30)]))
    def test_align_properties(self, value, alignment):
        down = align_down(value, alignment)
        up = align_up(value, alignment)
        assert down <= value <= up
        assert down % alignment == 0
        assert up % alignment == 0
        assert up - down in (0, alignment)


class TestSizeToOrder:
    def test_one_page(self):
        assert size_to_order(4096, 4096) == 0
        assert size_to_order(1, 4096) == 0

    def test_two_pages(self):
        assert size_to_order(4097, 4096) == 1
        assert size_to_order(8192, 4096) == 1

    def test_rounding_to_power_of_two_units(self):
        # 3 pages round to a 4-page (order 2) block: eager-paging rounding.
        assert size_to_order(3 * 4096, 4096) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            size_to_order(0, 4096)

    @given(st.integers(min_value=1, max_value=1 << 40))
    def test_block_covers_size(self, size):
        order = size_to_order(size, 4096)
        assert (4096 << order) >= size
        if order > 0:
            assert (4096 << (order - 1)) < size


class TestHumanBytes:
    def test_bytes(self):
        assert human_bytes(17) == "17 B"

    def test_kb(self):
        assert human_bytes(48 << 10) == "48.0 KB"

    def test_mb(self):
        assert human_bytes(2 << 20) == "2.0 MB"

    def test_gb(self):
        assert human_bytes(3 << 30) == "3.0 GB"
