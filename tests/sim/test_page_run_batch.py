"""The page-run pre-pass: skeleton-bound batches vs concretized batches.

:func:`repro.sim.fastpath.batch_for` binds a layout-independent
:class:`~repro.sim.fastpath.TraceRunSkeleton` to a layout by relocating
its page alphabet instead of concretizing the trace.  Every run column,
per-page aggregate and fault-site address it hands the engine must equal
what :meth:`~repro.sim.fastpath.PageRunBatch.from_trace` computes from
the concretized address column (per-page columns up to the alphabet's
page order) — without ever building that column.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.accel.trace import SymbolicTrace
from repro.common.consts import PAGE_SHIFT
from repro.sim import fastpath
from repro.sim.fastpath import (PageRunBatch, TraceRunSkeleton,
                                _skeleton_layout_ok, batch_for)

PAGE = 1 << PAGE_SHIFT


def make_trace(streams, offsets, writes) -> SymbolicTrace:
    return SymbolicTrace(np.asarray(streams, np.int8),
                         np.asarray(offsets, np.int64),
                         np.asarray(writes, np.int8))


def make_layout(sizes: dict[int, int], rng=None, gap_pages=1):
    """Page-aligned, page-disjoint allocations, placed in shuffled order
    so sorted page order differs from stream-id order."""
    order = list(sizes)
    if rng is not None:
        rng.shuffle(order)
    bases, va = {}, 1 << 30
    for stream in order:
        bases[stream] = va
        va += (-(-sizes[stream] // PAGE) + gap_pages) * PAGE
    return SimpleNamespace(stream_bases=bases, stream_sizes=dict(sizes))


def random_trace(rng, stream_ids=(0, 2, 3, 6), n=3000):
    """Multi-stream trace with page-run structure and stream switches."""
    sizes = {s: int(rng.integers(1, 40)) * PAGE - int(rng.integers(0, 64))
             for s in stream_ids}
    ids = np.asarray(stream_ids)
    streams = ids[rng.integers(0, ids.shape[0], n)]
    reps = rng.integers(1, 6, n)
    streams = np.repeat(streams, reps)[:n]
    limits = np.array([sizes[s] for s in streams.tolist()])
    offsets = (rng.random(n) * limits).astype(np.int64) // 8 * 8
    # Sequential stretches make multi-access runs inside one page.
    seq = rng.random(n) < 0.5
    offsets[seq] = np.arange(n)[seq] * 8 % limits[seq] // 8 * 8
    writes = (rng.random(n) < 0.35).astype(np.int8)
    return make_trace(streams, offsets, writes), sizes


def skeleton_batch(trace, layout, cache=None) -> PageRunBatch:
    batch = batch_for(trace, layout, {} if cache is None else cache)
    assert batch._lazy is not None, "layout should be skeleton-eligible"
    return batch


def assert_batches_match(skel_batch: PageRunBatch, trace, layout):
    addrs, writes = trace.concretize(layout.stream_bases)
    ref = PageRunBatch.from_trace(addrs, writes)
    assert skel_batch.num_accesses == ref.num_accesses
    assert skel_batch.num_runs == ref.num_runs
    for name in ("starts", "lengths", "run_writes", "head_writes"):
        got, want = getattr(skel_batch, name), getattr(ref, name)
        np.testing.assert_array_equal(got, want, err_msg=name)
        assert got.dtype == np.int64, name
    np.testing.assert_array_equal(skel_batch.va_at(skel_batch.starts),
                                  addrs[ref.starts])
    # A skeleton batch keeps its unique pages in alphabet order: the same
    # set as the sorted reference, and every per-page column agrees page
    # by page.
    (upages, uidx), (ref_upages, ref_uidx) = (skel_batch.unique_pages(),
                                              ref.unique_pages())
    np.testing.assert_array_equal(np.sort(upages), ref_upages)
    np.testing.assert_array_equal(upages[uidx], ref_upages[ref_uidx])
    row = np.searchsorted(ref_upages, upages)
    for got, want in zip(skel_batch.page_aggregates(),
                         ref.page_aggregates()):
        np.testing.assert_array_equal(got, want[row])
    np.testing.assert_array_equal(skel_batch.written_pages(),
                                  ref.written_pages()[row])
    # The written flag is exactly "some access to the page stores".
    upages, _ = ref.unique_pages()
    stored = np.unique(addrs[np.asarray(writes) > 0] >> PAGE_SHIFT)
    np.testing.assert_array_equal(ref.written_pages(),
                                  np.isin(upages, stored))
    positions = np.arange(ref.num_accesses)[::7]
    np.testing.assert_array_equal(skel_batch.va_at(positions),
                                  addrs[positions])
    np.testing.assert_array_equal(ref.va_at(positions), addrs[positions])
    # None of the above may build the skeleton batch's address column.
    assert skel_batch._addrs is None
    np.testing.assert_array_equal(skel_batch.addrs, addrs)


class TestSkeletonMatchesTrace:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_multi_stream(self, seed):
        rng = np.random.default_rng(seed)
        trace, sizes = random_trace(rng)
        layout = make_layout(sizes, rng)
        assert_batches_match(skeleton_batch(trace, layout), trace, layout)

    def test_empty_trace(self):
        trace = make_trace([], [], [])
        layout = make_layout({0: PAGE})
        batch = skeleton_batch(trace, layout)
        assert batch.num_accesses == batch.num_runs == 0
        assert_batches_match(batch, trace, layout)

    def test_one_access(self):
        trace = make_trace([3], [PAGE + 8], [1])
        layout = make_layout({3: 4 * PAGE})
        assert_batches_match(skeleton_batch(trace, layout), trace, layout)

    def test_one_stream(self):
        rng = np.random.default_rng(11)
        trace, sizes = random_trace(rng, stream_ids=(4,))
        layout = make_layout(sizes)
        assert_batches_match(skeleton_batch(trace, layout), trace, layout)

    def test_stream_id_gaps(self):
        rng = np.random.default_rng(12)
        trace, sizes = random_trace(rng, stream_ids=(1, 5, 9))
        layout = make_layout(sizes, rng)
        skel = TraceRunSkeleton(trace)
        assert list(skel.max_opage) == [1, 5, 9]
        assert_batches_match(skeleton_batch(trace, layout), trace, layout)

    @pytest.mark.parametrize("flag", [0, 1])
    def test_all_or_no_stores(self, flag):
        rng = np.random.default_rng(13 + flag)
        trace, sizes = random_trace(rng)
        trace = make_trace(trace.streams, trace.offsets,
                           np.full(len(trace), flag, np.int8))
        layout = make_layout(sizes, rng)
        batch = skeleton_batch(trace, layout)
        assert_batches_match(batch, trace, layout)
        assert batch.written_pages().all() == bool(flag)
        assert batch.written_pages().any() == bool(flag)

    def test_stream_switch_onto_same_page_offset(self):
        # Same in-stream page and offset, different streams: the switch
        # must start a new run even though the offset column is constant.
        trace = make_trace([0, 0, 1, 1, 0], [8, 16, 8, 16, 24],
                           [0, 1, 0, 0, 1])
        layout = make_layout({0: PAGE, 1: PAGE})
        batch = skeleton_batch(trace, layout)
        np.testing.assert_array_equal(batch.starts, [0, 2, 4])
        np.testing.assert_array_equal(batch.lengths, [2, 2, 1])
        np.testing.assert_array_equal(batch.run_writes, [1, 0, 1])
        assert_batches_match(batch, trace, layout)

    def test_per_stream_extents(self):
        trace = make_trace([2, 0, 2, 0], [5 * PAGE, 0, PAGE, 3 * PAGE - 1],
                           [0, 0, 0, 0])
        skel = TraceRunSkeleton(trace)
        assert skel.max_opage == {0: 2, 2: 5}
        assert skel.min_opage == 0


class TestLayoutEligibility:
    def setup_method(self):
        self.trace = make_trace([0, 1, 0], [0, PAGE + 8, 2 * PAGE], [0, 1, 0])
        self.skel = TraceRunSkeleton(self.trace)

    def layout(self, bases, sizes):
        return SimpleNamespace(stream_bases=bases, stream_sizes=sizes)

    def test_accepts_disjoint_aligned_layout(self):
        layout = self.layout({0: 16 * PAGE, 1: 4 * PAGE},
                             {0: 3 * PAGE, 1: 2 * PAGE})
        assert _skeleton_layout_ok(self.skel, layout)

    def test_rejects_unaligned_base(self):
        layout = self.layout({0: 16 * PAGE + 64, 1: 4 * PAGE},
                             {0: 3 * PAGE, 1: 2 * PAGE})
        assert not _skeleton_layout_ok(self.skel, layout)

    def test_rejects_offset_beyond_allocation(self):
        # Stream 0 touches its third page, but only two are allocated.
        layout = self.layout({0: 16 * PAGE, 1: 4 * PAGE},
                             {0: 2 * PAGE, 1: 2 * PAGE})
        assert not _skeleton_layout_ok(self.skel, layout)

    @pytest.mark.parametrize("offsets", [[-8, 0], [0, -8]])
    def test_rejects_negative_offset(self, offsets):
        # An access before its stream's base can share a page with the
        # stream allocated just below it.
        skel = TraceRunSkeleton(make_trace([0, 1], offsets, [0, 0]))
        layout = self.layout({0: 16 * PAGE, 1: 4 * PAGE},
                             {0: 3 * PAGE, 1: 2 * PAGE})
        assert not _skeleton_layout_ok(skel, layout)

    def test_rejects_overlapping_allocations(self):
        # Stream 1's last page is stream 0's first page.
        layout = self.layout({0: 5 * PAGE, 1: 4 * PAGE},
                             {0: 3 * PAGE, 1: 2 * PAGE})
        assert not _skeleton_layout_ok(self.skel, layout)

    def test_rejects_missing_stream(self):
        layout = self.layout({0: 16 * PAGE}, {0: 3 * PAGE})
        assert not _skeleton_layout_ok(self.skel, layout)

    def test_ineligible_layout_concretizes(self):
        layout = self.layout({0: 5 * PAGE, 1: 4 * PAGE},
                             {0: 3 * PAGE, 1: 2 * PAGE})
        batch = batch_for(self.trace, layout, {})
        assert batch._lazy is None
        addrs, _ = self.trace.concretize(layout.stream_bases)
        np.testing.assert_array_equal(batch.addrs, addrs)


class TestBatchCache:
    def test_second_layout_reuses_skeleton(self, monkeypatch):
        rng = np.random.default_rng(21)
        trace, sizes = random_trace(rng)
        built = []
        real = fastpath.TraceRunSkeleton

        def counting(t):
            built.append(t)
            return real(t)

        monkeypatch.setattr(fastpath, "TraceRunSkeleton", counting)
        cache: dict = {}
        first_layout = make_layout(sizes, rng)
        second_layout = make_layout(sizes, rng, gap_pages=3)
        first = skeleton_batch(trace, first_layout, cache)
        second = skeleton_batch(trace, second_layout, cache)
        assert len(built) == 1
        assert second is not first
        assert second._lazy[0] is first._lazy[0]
        # The same layout again returns the finished batch itself.
        assert batch_for(trace, first_layout, cache) is first
        assert len(built) == 1
        assert_batches_match(first, trace, first_layout)
        assert_batches_match(second, trace, second_layout)


class TestPageRuns:
    """:func:`fastpath._page_runs` against a whole-trace ``reduceat``
    that casts its input itself (the form that held the GIL)."""

    @staticmethod
    def reference(change, writes):
        starts = np.flatnonzero(change)
        lengths = np.diff(np.append(starts, change.shape[0]))
        return (starts, lengths,
                np.add.reduceat(writes, starts, dtype=np.int64),
                writes[starts].astype(np.int64))

    def check(self, change, writes):
        got = fastpath._page_runs(change, writes)
        for column, want in zip(got, self.reference(change, writes)):
            assert column.dtype == np.int64
            np.testing.assert_array_equal(column, want)

    @pytest.mark.parametrize("dtype", [np.int8, np.bool_, np.int64])
    @pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
    def test_matches_reference(self, dtype, density):
        rng = np.random.default_rng(5)
        change = rng.random(400) < density
        change[0] = True
        writes = (rng.random(400) < 0.5).astype(dtype)
        self.check(change, writes)

    def test_single_run(self):
        change = np.zeros(7, bool)
        change[0] = True
        self.check(change, np.array([1, 0, 1, 1, 0, 0, 1], np.int8))

    def test_empty_trace(self):
        starts, lengths, run_writes, head_writes = fastpath._page_runs(
            np.zeros(0, bool), np.zeros(0, np.int8))
        for column in (starts, lengths, run_writes, head_writes):
            assert column.shape == (0,) and column.dtype == np.int64
