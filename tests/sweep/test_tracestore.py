"""The memmapped trace store: round trip and integrity failures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.algorithms import run_workload
from repro.common import integrity
from repro.common.errors import CacheIntegrityError
from repro.graphs.rmat import rmat_graph
from repro.sweep import tracestore


@pytest.fixture(scope="module")
def trace():
    return run_workload("pagerank", rmat_graph(scale=7, edge_factor=4,
                                               seed=62)).trace


def _mapped(column) -> bool:
    while column is not None:
        if isinstance(column, np.memmap):
            return True
        column = column.base
    return False


class TestRoundTrip:
    def test_columns_round_trip_read_only(self, tmp_path, trace):
        path = tmp_path / "trace-k.mm"
        tracestore.publish(path, trace)
        assert tracestore.is_published(path)
        loaded = tracestore.open_trace(path)
        for name in tracestore.COLUMNS:
            column = getattr(loaded, name)
            assert _mapped(column)
            assert np.array_equal(column, getattr(trace, name))
            assert column.dtype == getattr(trace, name).dtype
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[0]


def _drop_marker(path):
    (path / tracestore.OK_MARKER).unlink()


def _ragged(path):
    # A short column with a matching sidecar: only the length check
    # can catch it.
    target = path / "writes.npy"
    writes = np.load(target)
    np.save(target, writes[:-1])
    integrity.write_sidecar(target)


def _corrupt(path):
    target = path / "streams.npy"
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0xFF
    target.write_bytes(bytes(raw))


@pytest.mark.parametrize("damage, match", [
    (_drop_marker, "incomplete"),
    (_ragged, "ragged"),
    (_corrupt, "mismatch"),
], ids=["missing-ok-marker", "ragged-columns", "corrupted-column"])
def test_damaged_store_raises_integrity_error(tmp_path, trace, damage,
                                             match):
    path = tmp_path / "trace-k.mm"
    tracestore.publish(path, trace)
    damage(path)
    with pytest.raises(CacheIntegrityError, match=match):
        tracestore.open_trace(path)
