"""DRAM accounting and the energy model (repro.hw.dram, .energy)."""

import numpy as np
import pytest

from repro.hw.dram import DRAMModel
from repro.hw.energy import DEFAULT_ENERGY_PJ, EnergyAccount, EnergyModel
from repro.sim import _native


class TestDRAM:
    def test_latencies_returned(self):
        dram = DRAMModel(data_latency=100, walk_latency=70)
        assert dram.data_access() == 100
        assert dram.walk_access() == 70

    def test_counters(self):
        dram = DRAMModel()
        dram.data_access()
        dram.data_access()
        dram.walk_access()
        dram.squashed_preload()
        assert dram.stats.data_accesses == 2
        assert dram.stats.walk_accesses == 1
        assert dram.stats.squashed_preloads == 1
        assert dram.stats.total_accesses == 4

    def test_walk_latency_below_data_latency(self):
        """Walk fetches enjoy row-buffer locality: the default model keeps
        them cheaper than demand data fetches."""
        dram = DRAMModel()
        assert dram.walk_latency < dram.data_latency


def row_stream(seed: int, n: int = 6000) -> np.ndarray:
    """Random 4 KB pages over 16 banks: a narrow row alphabet (row hits)
    mixed with scattered rows (misses)."""
    rng = np.random.default_rng(seed)
    rows = np.where(rng.random(n) < 0.6, rng.integers(0, 4, n),
                    rng.integers(0, 1 << 20, n))
    return (rows << 4) | rng.integers(0, 16, n)


def account(pages, indexed: bool, pieces: int, seed: int):
    """Row counters and open rows after accounting ``pages`` in
    ``pieces`` calls, directly or through a unique-page table."""
    dram = DRAMModel()
    table, idx = np.unique(pages, return_inverse=True)
    idx = idx.astype(np.int32)
    cuts = np.sort(np.random.default_rng(seed).integers(
        0, pages.size, pieces - 1))
    bounds = [0, *cuts.tolist(), pages.size]
    for lo, hi in zip(bounds, bounds[1:]):
        if indexed:
            dram.account_rows(table, idx[lo:hi])
        else:
            dram.account_rows(pages[lo:hi])
    return dram.stats.row_hits, dram.stats.row_misses, list(dram._last_rows)


class TestRowAccountingFallback:
    """``account_rows``'s numpy fallback — the DRAM path of a host
    without the compiled kernel — accounts exactly like the kernel."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize("pieces", [1, 5])
    def test_fallback_matches_kernel(self, seed, indexed, pieces,
                                     monkeypatch):
        if not _native.available():
            pytest.skip("no C compiler available for the native kernel")
        pages = row_stream(seed)
        kernel = account(pages, indexed, pieces, seed)
        monkeypatch.setattr(_native, "_load", lambda: None)
        fallback = account(pages, indexed, pieces, seed)
        assert fallback == kernel
        hits, misses, _ = kernel
        assert hits > 0 and misses > 0
        assert hits + misses == pages.size
        # A trace split into several calls accounts like one pass.
        assert account(pages, indexed, 1, seed) == kernel


class TestEnergyModel:
    def test_default_table_relative_costs(self):
        model = EnergyModel()
        # CACTI-like hierarchy: FA TLB >> SA SRAM, DRAM >> everything.
        assert model.cost("tlb_fa_lookup") > model.cost("sram_lookup")
        assert model.cost("dram_access") > model.cost("tlb_fa_lookup")

    def test_unknown_event_rejected(self):
        account = EnergyAccount()
        with pytest.raises(KeyError):
            account.add("flux_capacitor")

    def test_accumulation(self):
        account = EnergyAccount()
        account.add("sram_lookup", 10)
        account.add("sram_lookup", 5)
        account.add("dram_access", 2)
        expected = (15 * DEFAULT_ENERGY_PJ["sram_lookup"]
                    + 2 * DEFAULT_ENERGY_PJ["dram_access"])
        assert account.total_pj() == pytest.approx(expected)

    def test_breakdown(self):
        account = EnergyAccount()
        account.add("tlb_fa_lookup", 3)
        breakdown = account.breakdown_pj()
        assert breakdown == {
            "tlb_fa_lookup": 3 * DEFAULT_ENERGY_PJ["tlb_fa_lookup"]
        }

    def test_empty_account_is_zero(self):
        assert EnergyAccount().total_pj() == 0.0

    def test_custom_table(self):
        account = EnergyAccount(model=EnergyModel(table={"sram_lookup": 1.0}))
        account.add("sram_lookup", 7)
        assert account.total_pj() == 7.0
