"""The page-run pre-pass: skeleton-bound batches vs concretized batches,
and the compiled scan against its numpy formulation.

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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.trace import SymbolicTrace
from repro.common.consts import PAGE_SHIFT
from repro.sim import _native, fastpath
from repro.sim.fastpath import (PageRunBatch, TraceRunSkeleton,
                                _skeleton_layout_ok, batch_for)

PAGE = 1 << PAGE_SHIFT

#: Every batch here is scanned, and the scan is compiled.
pytestmark = pytest.mark.skipif(not _native.available(),
                                reason="no C compiler for the kernel")


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
        assert got.dtype == want.dtype, name
    for name in ("starts", "lengths", "run_writes"):
        assert getattr(skel_batch, name).dtype == np.int64, name
    # The head store is a gather from the store column, in its dtype.
    assert skel_batch.head_writes.dtype == skel_batch.writes.dtype
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


def reference_scan(streams, cols, writes):
    """The page-run pre-pass in numpy, as the engine computed it before
    the compiled scan: ``(runs, (ukeys, uidx), aggregates, written, lo,
    span)``.  :func:`repro.sim.fastpath._scan` returns the same, except
    that its run-scale result is the heads alone; ``runs`` here is
    ``(starts, lengths, run_writes, head_writes)``, which a batch's
    accessors derive from the heads and the store column."""
    cols = np.asarray(cols, np.int64)
    pages = cols >> PAGE_SHIFT
    n = pages.shape[0]
    change = np.ones(n, bool)
    np.not_equal(pages[1:], pages[:-1], out=change[1:])
    if streams is not None:
        streams = np.asarray(streams, np.int8)
        change[1:] |= streams[1:] != streams[:-1]
    starts = np.flatnonzero(change)
    lengths = np.diff(np.append(starts, n))
    run_writes = (np.add.reduceat(writes, starts, dtype=np.int64) if n
                  else np.zeros(0, np.int64))
    head_writes = writes[starts]
    heads = pages[starts]
    lo = int(heads.min()) if n else 0
    span = 0
    keys = heads
    if streams is not None:
        span = max(int(heads.max(initial=-1)), 0) + 1
        keys = streams[starts].astype(np.int64) * span + heads
    ukeys, uidx = np.unique(keys, return_inverse=True)
    u = ukeys.shape[0]
    aggregates = (
        np.bincount(uidx, minlength=u),
        np.bincount(uidx, weights=lengths, minlength=u).astype(np.int64),
        np.bincount(uidx, weights=run_writes, minlength=u).astype(np.int64))
    written = np.zeros(u, bool)
    written[uidx[run_writes > 0]] = True
    return ((starts, lengths, run_writes, head_writes),
            (ukeys.astype(np.int64), uidx.astype(np.int32)), aggregates,
            written, lo, span)


def derived_runs(streams, cols, writes):
    """``(starts, lengths, run_writes, head_writes)`` as a batch's
    accessors derive them from the compiled scan of these columns: a
    concretized batch without streams, else a skeleton batch (bound to
    zero bases, which only the page alphabet reads)."""
    if streams is None:
        batch = PageRunBatch.from_trace(cols, writes)
    else:
        skel = TraceRunSkeleton(SimpleNamespace(streams=streams,
                                                offsets=cols, writes=writes))
        batch = PageRunBatch.from_skeleton(skel, np.zeros(128, np.int64))
    return (batch.starts, batch.lengths, batch.run_writes,
            batch.head_writes)


def assert_scan_matches(streams, cols, writes):
    """Check the compiled scan and the accessors derived from it against
    :func:`reference_scan`; returns the scan's result with its heads
    replaced by the four derived run columns."""
    starts, *rest = fastpath._scan(streams, cols, writes)
    runs = derived_runs(streams, cols, writes)
    want = reference_scan(streams, cols, writes)
    (alphabet, aggregates, written, lo, span) = rest
    (ref_runs, ref_alphabet, ref_aggregates, ref_written, ref_lo,
     ref_span) = want
    for column, ref in zip((starts,) + runs + alphabet + aggregates
                           + (written,),
                           ref_runs[:1] + ref_runs + ref_alphabet
                           + ref_aggregates + (ref_written,)):
        assert column.dtype == ref.dtype
        np.testing.assert_array_equal(column, ref)
    assert (lo, span) == (ref_lo, ref_span)
    return (runs, *rest)


class TestPageRuns:
    """The compiled page-run scan (:func:`fastpath._scan`) against a
    whole-trace ``reduceat`` that casts its input itself."""

    @staticmethod
    def reference(change, writes):
        starts = np.flatnonzero(change)
        lengths = np.diff(np.append(starts, change.shape[0]))
        return (starts, lengths,
                np.add.reduceat(writes, starts, dtype=np.int64),
                writes[starts])

    def check(self, change, writes):
        # One stream whose page changes exactly where ``change`` is set.
        addrs = np.cumsum(change, dtype=np.int64) * PAGE + 8
        runs = assert_scan_matches(None, addrs, writes)[0]
        for column, want in zip(runs, self.reference(change, writes)):
            assert column.dtype == want.dtype
            np.testing.assert_array_equal(column, want)
        assert [column.dtype for column in runs] == [np.int64] * 3 + [
            writes.dtype]

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
        runs, (ukeys, uidx), aggregates, written, _, _ = assert_scan_matches(
            None, np.zeros(0, np.int64), np.zeros(0, np.int8))
        for column in runs[:3] + (ukeys,) + aggregates:
            assert column.shape == (0,) and column.dtype == np.int64
        assert runs[3].shape == (0,) and runs[3].dtype == np.int8
        assert uidx.shape == written.shape == (0,)

    @pytest.mark.parametrize("dtype", [np.int8, np.bool_, np.int64])
    def test_store_column_of_wrong_length(self, dtype):
        addrs = np.array([0, 8, PAGE, 2 * PAGE], np.int64)
        starts, keys, bounds, _, _ = _native.page_runs(None, addrs)
        ukeys, uidx = fastpath._compact(keys, bounds)
        for length in (3, 5, 0):
            with pytest.raises(ValueError, match="store column"):
                _native.page_aggregates(uidx, ukeys.shape[0], starts, 4,
                                        np.zeros(length, dtype))
        run_count, access_count, _, _ = _native.page_aggregates(
            uidx, ukeys.shape[0], starts, 4, np.zeros(4, dtype))
        assert run_count.tolist() == [1, 1, 1]
        assert access_count.tolist() == [2, 1, 1]

    def test_heads_out_of_range(self):
        uidx = np.zeros(2, np.int32)
        writes = np.zeros(4, np.int8)
        for starts in ([0, 5], [2, 1], [-1, 2]):
            with pytest.raises(ValueError, match="out of range"):
                _native.page_aggregates(uidx, 1, np.array(starts, np.int64),
                                        4, writes)

    def test_wide_page_span_takes_the_sort_path(self):
        # Two pages 2**40 pages apart: far past the presence table's
        # budget, so the alphabet comes from the sort.
        far = (1 << 40) << PAGE_SHIFT
        addrs = np.array([0, 8, far, far + 8, 16, far], np.int64)
        writes = np.array([0, 1, 0, 0, 1, 1], np.int8)
        (starts, lengths, run_writes, _), (ukeys, uidx), aggregates, _, _, \
            _ = assert_scan_matches(None, addrs, writes)
        assert ukeys[-1] - ukeys[0] > fastpath._COMPACT_SPAN_BUDGET
        np.testing.assert_array_equal(starts, [0, 2, 4, 5])
        np.testing.assert_array_equal(lengths, [2, 2, 1, 1])
        np.testing.assert_array_equal(run_writes, [1, 0, 1, 1])
        np.testing.assert_array_equal(uidx, [0, 1, 0, 1])
        np.testing.assert_array_equal(aggregates[1], [3, 3])


class TestScanProperties:
    """The compiled scan equals the numpy reference on symbolic traces."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0, 1, 5, 127]),
                              st.integers(-3, 6), st.integers(0, 4095),
                              st.integers(0, 1)),
                    max_size=60),
           st.sampled_from([np.int8, np.bool_, np.int64]))
    def test_matches_numpy_reference(self, accesses, dtype):
        streams = np.array([a[0] for a in accesses], np.int8)
        offsets = np.array([a[1] * PAGE + a[2] for a in accesses], np.int64)
        writes = np.array([a[3] for a in accesses], dtype)
        assert_scan_matches(streams, offsets, writes)
        assert_scan_matches(None, offsets, writes)

    def test_empty_trace(self):
        skel = TraceRunSkeleton(make_trace([], [], []))
        assert skel.num_writes == 0 and skel.max_opage == {}
        assert skel.min_opage == 0
        assert_scan_matches(np.zeros(0, np.int8), np.zeros(0, np.int64),
                            np.zeros(0, np.int8))

    def test_one_access(self):
        (starts, lengths, run_writes, head_writes), (ukeys, _), _, _, lo, \
            span = assert_scan_matches(np.array([3], np.int8),
                                       np.array([5 * PAGE + 8]),
                                       np.array([1], np.int8))
        assert (starts.tolist(), lengths.tolist(), run_writes.tolist(),
                head_writes.tolist()) == ([0], [1], [1], [1])
        assert (lo, span) == (5, 6)
        assert ukeys.tolist() == [3 * 6 + 5]

    def test_one_page(self):
        writes = np.array([0, 1, 1, 0, 1], np.int8)
        runs, _, aggregates, written, _, _ = assert_scan_matches(
            np.zeros(5, np.int8), np.arange(5, dtype=np.int64) * 8, writes)
        assert [column.tolist() for column in runs] == [[0], [5], [3], [0]]
        assert [column.tolist() for column in aggregates] == [[1], [5], [3]]
        assert written.tolist() == [True]

    def test_stream_switch_on_same_page_splits_the_run(self):
        runs, (ukeys, uidx), _, _, _, span = assert_scan_matches(
            np.array([0, 0, 1, 1, 0], np.int8),
            np.array([8, 16, 8, 16, 24], np.int64),
            np.array([0, 1, 0, 0, 1], np.int8))
        np.testing.assert_array_equal(runs[0], [0, 2, 4])
        np.testing.assert_array_equal(uidx, [0, 1, 0])
        assert span == 1 and ukeys.tolist() == [0, 1]

    @pytest.mark.parametrize("dtype", [np.int8, np.bool_, np.int64])
    def test_store_dtypes_on_small_traces(self, dtype):
        # Empty, one access, and a stream switch on the same page, each
        # with the store column in every dtype the kernel reads.
        for streams, offsets, writes in (([], [], []), ([3], [PAGE + 8], [1]),
                                         ([0, 0, 1, 1, 0], [8, 16, 8, 16, 24],
                                          [0, 1, 0, 0, 1])):
            streams = np.array(streams, np.int8)
            offsets = np.array(offsets, np.int64)
            writes = np.array(writes, dtype)
            assert_scan_matches(None, offsets, writes)
            runs, *_ = assert_scan_matches(streams, offsets, writes)
            assert runs[3].dtype == dtype
        starts, lengths, run_writes, head_writes = runs
        assert starts.tolist() == [0, 2, 4]
        assert lengths.tolist() == [2, 2, 1]
        assert run_writes.tolist() == [1, 0, 1]
        np.testing.assert_array_equal(head_writes, np.array([0, 0, 1], dtype))

    def test_stream_127(self):
        trace = make_trace([127, 127, 0, 127], [0, PAGE, 0, 3 * PAGE],
                           [1, 0, 0, 1])
        skel = TraceRunSkeleton(trace)
        assert skel.max_opage == {0: 0, 127: 3}
        assert skel.u_streams.tolist() == [0, 127, 127, 127]
        layout = make_layout({0: PAGE, 127: 4 * PAGE})
        assert_batches_match(skeleton_batch(trace, layout), trace, layout)

    @pytest.mark.parametrize("offsets", [[-8, 0, PAGE], [0, -PAGE - 8, 8]])
    def test_negative_offsets_concretize(self, offsets):
        trace = make_trace([0, 1, 1], offsets, [1, 0, 1])
        skel = TraceRunSkeleton(trace)
        assert skel.min_opage < 0
        assert_scan_matches(trace.streams, trace.offsets, trace.writes)
        layout = make_layout({0: 2 * PAGE, 1: 2 * PAGE})
        batch = batch_for(trace, layout, {})
        assert batch._lazy is None
        addrs, writes = trace.concretize(layout.stream_bases)
        np.testing.assert_array_equal(batch.addrs, addrs)
        assert_scan_matches(None, addrs, writes)
