"""Direct coverage for small public APIs exercised only indirectly."""

import numpy as np
import pytest

from repro.common.perms import Perm
from repro.kernel.address_space import AddressSpace
from repro.kernel.kernel import Kernel
from repro.kernel.page_table import PageTable, PageTableNode
from repro.kernel.phys import PhysicalMemory
from repro.kernel.vm_syscalls import MemPolicy

MB = 1 << 20


class TestKernelHelpers:
    def test_new_rng_deterministic_per_purpose(self):
        kernel = Kernel(phys_bytes=64 * MB, seed=9)
        a = kernel.new_rng("x").integers(0, 1 << 30)
        b = Kernel(phys_bytes=64 * MB, seed=9).new_rng("x").integers(0, 1 << 30)
        assert a == b

    def test_new_rng_differs_across_purposes(self):
        kernel = Kernel(phys_bytes=64 * MB, seed=9)
        a = kernel.new_rng("x").integers(0, 1 << 30)
        b = kernel.new_rng("y").integers(0, 1 << 30)
        assert a != b

    @pytest.mark.parametrize("seed", [0, 9, 12345])
    def test_aslr_draw_is_a_fresh_generators_first_draw(self, seed):
        kernel = Kernel(phys_bytes=64 * MB, seed=seed)
        for pid in (1, 2, 7, 400):
            for bits in (28, 12):
                fresh = int(kernel.new_rng(f"aslr-{pid}")
                            .integers(0, 1 << bits))
                assert kernel.aslr_pages(pid, bits) == fresh
                assert kernel.aslr_pages(pid, bits) == fresh   # memoized

    def test_spawned_mmap_base_matches_a_generator_built_aspace(self):
        kernel = Kernel(phys_bytes=64 * MB, seed=3)
        for _ in range(3):
            proc = kernel.spawn()
            want = AddressSpace(rng=kernel.new_rng(f"aslr-{proc.pid}"))
            assert proc.aspace.mmap_base == want.mmap_base

    def test_share_release_refcounts(self):
        kernel = Kernel(phys_bytes=64 * MB)
        chunk = (0x100_0000, 4096)
        kernel.share_frames(chunk)
        kernel.share_frames(chunk)
        assert kernel.shared_owner_count(chunk) == 2
        kernel.release_frames(chunk)
        assert kernel.shared_owner_count(chunk) == 1
        kernel.release_frames(chunk)
        assert kernel.shared_owner_count(chunk) == 0
        kernel.release_frames(chunk)  # extra release is harmless
        assert kernel.shared_owner_count(chunk) == 0

    def test_share_rejects_bad_chunk(self):
        kernel = Kernel(phys_bytes=64 * MB)
        with pytest.raises(ValueError):
            kernel.share_frames((123, 4096))
        with pytest.raises(ValueError):
            kernel.share_frames((0, 0))

    def test_bitmap_for_none_without_factory(self):
        kernel = Kernel(phys_bytes=64 * MB)
        assert kernel.bitmap_for(kernel.spawn()) is None


class TestPageTableNodeHelpers:
    def test_entry_addr_layout(self):
        node = PageTableNode(level=1, phys_addr=0x8000)
        assert node.entry_addr(0) == 0x8000
        assert node.entry_addr(511) == 0x8000 + 511 * 8

    def test_live_entries(self):
        phys = PhysicalMemory(size=64 * MB)
        table = PageTable(phys)
        table.map_page(0, 4096, Perm.READ_WRITE)
        leaf_node = table._descend_to(0, 1, create=False)
        assert leaf_node.live_entries() == 1


class TestVertexProgramHelpers:
    def test_initial_frontier_single_source(self):
        from repro.accel.vertex_program import BFSProgram
        from repro.graphs.rmat import rmat_graph
        graph = rmat_graph(scale=6, edge_factor=4, seed=70)
        frontier = BFSProgram().initial_frontier(graph, source=5)
        assert frontier.tolist() == [5]

    def test_initial_frontier_all_active(self):
        from repro.accel.vertex_program import PageRankProgram
        from repro.graphs.rmat import rmat_graph
        graph = rmat_graph(scale=6, edge_factor=4, seed=70)
        program = PageRankProgram()
        program.initial(graph, 0)
        frontier = program.initial_frontier(graph, source=0)
        assert len(frontier) == graph.num_vertices

    def test_reduce_identities(self):
        from repro.accel.vertex_program import (BFSProgram,
                                                PageRankProgram)
        assert BFSProgram().reduce_identity() == float("inf")
        assert PageRankProgram().reduce_identity() == 0.0


class TestVMMStats:
    def test_total_bytes(self):
        kernel = Kernel(phys_bytes=64 * MB, policy=MemPolicy(mode="dvm"))
        proc = kernel.spawn()
        proc.vmm.mmap(1 * MB)
        assert proc.vmm.stats.total_bytes == 1 * MB


class TestNestedTranslationProperties:
    def test_total_mem_accesses(self):
        from repro.virt.nested import NestedTranslation
        t = NestedTranslation(gva=0, spa=0, guest_mem_accesses=3,
                              host_mem_accesses=4, guest_sram_accesses=0,
                              host_sram_accesses=0,
                              identity_end_to_end=False)
        assert t.total_mem_accesses == 7


class TestSecurityHelpers:
    def test_distinct_fraction(self):
        from repro.experiments.security import EntropyResult
        r = EntropyResult(policy="x", samples=10, distinct=5,
                          sample_entropy_bits=2.0, span_bytes=0)
        assert r.distinct_fraction == 0.5
