"""DRAM timing and accounting.

The paper's system (Table 2) has four DDR4 channels (51.2 GB/s) behind a
1 GHz accelerator.  The trace-driven model needs two numbers from DRAM:

* ``data_latency`` — average load-to-use latency of a data access, which
  sets the ideal (no-MMU) execution time together with the accelerator's
  memory-level parallelism;
* ``walk_latency`` — average latency of a page-table / bitmap fetch.  Walk
  references exhibit strong row-buffer and memory-controller locality, so
  they resolve faster than demand data misses on average.

Both are in accelerator cycles.  The model also counts every access for the
dynamic-energy report (Figure 9), and tracks row-buffer locality of the
demand-data stream (open-row hits per bank) as a pure counter: rows inform
the bandwidth discussion but carry no latency in the two-number model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Default latencies (accelerator cycles at 1 GHz).
DEFAULT_DATA_LATENCY = 100
DEFAULT_WALK_LATENCY = 70

#: Row-locality model: 16 banks, bank = low page bits, row = high page
#: bits.  Derived from the *virtual* 4 KB page stream so both timing
#: engines account identically.
NUM_BANKS = 16
_BANK_MASK = NUM_BANKS - 1
_BANK_SHIFT = 4


@dataclass
class DRAMStats:
    """Access counters by requester."""

    data_accesses: int = 0
    walk_accesses: int = 0      # page table / bitmap fetches
    squashed_preloads: int = 0  # DVM-PE+ preloads discarded after DAV failure
    row_hits: int = 0           # demand-data accesses to the open row
    row_misses: int = 0         # demand-data accesses that opened a row

    @property
    def total_accesses(self) -> int:
        """All DRAM accesses including squashed preloads."""
        return self.data_accesses + self.walk_accesses + self.squashed_preloads

    def to_dict(self) -> dict[str, int]:
        """Counter snapshot (observability reporting, ``repro.obs``)."""
        return {"data_accesses": self.data_accesses,
                "walk_accesses": self.walk_accesses,
                "squashed_preloads": self.squashed_preloads,
                "row_hits": self.row_hits,
                "row_misses": self.row_misses}


@dataclass
class DRAMModel:
    """Latency source and access counter for the memory system."""

    data_latency: int = DEFAULT_DATA_LATENCY
    walk_latency: int = DEFAULT_WALK_LATENCY
    stats: DRAMStats = field(default_factory=DRAMStats)
    #: Open row per bank (-1 = closed), advanced by :meth:`account_rows`.
    _last_rows: list[int] = field(default_factory=lambda: [-1] * NUM_BANKS)

    def data_access(self) -> int:
        """One demand data access; returns its latency in cycles."""
        self.stats.data_accesses += 1
        return self.data_latency

    def walk_access(self) -> int:
        """One page-table/bitmap fetch; returns its latency in cycles."""
        self.stats.walk_accesses += 1
        return self.walk_latency

    def squashed_preload(self) -> None:
        """A preload issued in parallel with DAV that had to be discarded.

        Costs energy and bandwidth but no exposed latency (the retry is
        accounted by the caller as a fresh data access).
        """
        self.stats.squashed_preloads += 1

    # -- row-buffer accounting (demand-data stream) -------------------------

    def account_rows(self, pages: np.ndarray, idx=None) -> None:
        """Account row-buffer hits/misses for an in-order 4 KB page stream.

        ``pages`` are the virtual page numbers of the demand-data accesses,
        in trace order — or, when ``idx`` is given, a page table the
        stream reads as ``pages[idx]``.  Per bank, an access hits iff it
        targets the row left open by the previous access to that bank;
        the open-row state persists across calls, so a trace split into
        several calls accounts identically to one pass.
        """
        n = int(len(pages if idx is None else idx))
        if not n:
            return
        from repro.sim import _native
        native = _native.row_hits(pages, self._last_rows, idx)
        if native is not None:
            hits = native
        else:
            pages = np.asarray(pages, dtype=np.int64)
            if idx is not None:
                pages = pages[idx]
            banks = pages & _BANK_MASK
            rows = pages >> _BANK_SHIFT
            hits = 0
            for bank in range(NUM_BANKS):
                bank_rows = rows[banks == bank]
                if not bank_rows.size:
                    continue
                same = np.empty(bank_rows.size, dtype=bool)
                same[0] = bank_rows[0] == self._last_rows[bank]
                np.equal(bank_rows[1:], bank_rows[:-1], out=same[1:])
                hits += int(same.sum())
                self._last_rows[bank] = int(bank_rows[-1])
        self.stats.row_hits += hits
        self.stats.row_misses += n - hits

    def account_rows_runs(self, upages: np.ndarray, uidx: np.ndarray,
                          accesses: int) -> None:
        """Run-compressed :meth:`account_rows` for the batched engine.

        Run ``i`` of an ``accesses``-long trace is on page
        ``upages[uidx[i]]``.  A run's interior accesses repeat the head's
        page, so they are guaranteed open-row hits and never move any
        bank's open row; only the run heads need the per-bank comparison.
        """
        self.account_rows(upages, uidx)
        self.stats.row_hits += accesses - int(len(uidx))
