"""Symbolic traces (repro.accel.trace)."""

import numpy as np
import pytest

from repro.accel import trace as T
from repro.accel.trace import SymbolicTrace, interleave_chunks


def small_trace() -> SymbolicTrace:
    return SymbolicTrace(
        streams=np.array([T.EDGES, T.VPROP, T.EDGES], dtype=np.int8),
        offsets=np.array([0, 8, 12], dtype=np.int64),
        writes=np.array([0, 1, 0], dtype=np.int8),
    )


class TestSymbolicTrace:
    def test_length(self):
        assert len(small_trace()) == 3

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SymbolicTrace(streams=np.zeros(2, np.int8),
                          offsets=np.zeros(3, np.int64),
                          writes=np.zeros(2, np.int8))

    def test_concretize(self):
        trace = small_trace()
        addrs, writes = trace.concretize({T.EDGES: 0x1000, T.VPROP: 0x8000})
        assert addrs.tolist() == [0x1000, 0x8008, 0x100C]
        assert writes.tolist() == [0, 1, 0]

    def test_concretize_missing_stream_rejected(self):
        with pytest.raises(KeyError):
            small_trace().concretize({T.EDGES: 0x1000})

    def test_content_token_is_the_sha1_of_the_columns(self):
        import hashlib
        trace = small_trace()
        digest = hashlib.sha1()
        for column in (trace.streams, trace.offsets, trace.writes):
            digest.update(column.tobytes())
        assert trace.content_token() == digest.hexdigest()

    def test_content_token_of_strided_columns(self):
        wide = np.arange(12, dtype=np.int64)
        strided = SymbolicTrace(streams=np.zeros(6, np.int8),
                                offsets=wide[::2],
                                writes=np.zeros(6, np.int8))
        packed = SymbolicTrace(streams=np.zeros(6, np.int8),
                               offsets=wide[::2].copy(),
                               writes=np.zeros(6, np.int8))
        assert strided.content_token() == packed.content_token()

    def test_write_fraction(self):
        assert small_trace().write_fraction() == pytest.approx(1 / 3)

    def test_stream_histogram(self):
        hist = small_trace().stream_histogram()
        assert hist == {"edges": 2, "vprop": 1}


class TestInterleave:
    def test_round_robin_two_lanes(self):
        values = np.arange(6)
        merged = interleave_chunks(values, 2)
        # Chunks [0,1,2] and [3,4,5] -> 0,3,1,4,2,5.
        assert merged.tolist() == [0, 3, 1, 4, 2, 5]

    def test_uneven_division(self):
        values = np.arange(5)
        merged = interleave_chunks(values, 2)
        assert sorted(merged.tolist()) == [0, 1, 2, 3, 4]

    def test_single_lane_identity(self):
        values = np.arange(5)
        assert interleave_chunks(values, 1) is values

    def test_more_lanes_than_values(self):
        values = np.arange(3)
        assert interleave_chunks(values, 8) is values

    def test_preserves_multiset(self):
        values = np.arange(100)
        merged = interleave_chunks(values, 8)
        assert sorted(merged.tolist()) == values.tolist()

    def test_sentinel_like_values_survive(self):
        # Padding is tracked by a length mask, so values that look like
        # padding sentinels (0, -1) must round-trip untouched.
        values = np.array([-1, 0, -1, 0, -1], dtype=np.int64)
        merged = interleave_chunks(values, 2)
        assert sorted(merged.tolist()) == sorted(values.tolist())
        assert len(merged) == len(values)

    def test_uneven_negative_addresses(self):
        values = -np.arange(1, 8)
        merged = interleave_chunks(values, 3)
        assert sorted(merged.tolist()) == sorted(values.tolist())
