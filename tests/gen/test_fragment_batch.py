"""The fragment prelude's batch path against its page-at-a-time reference.

``per_call_fragment_phys`` keeps the prelude as it was written before
the batch syscalls: one ``mmap`` per board page and one ``munmap`` per
odd page.  ``VMM.mmap_pages``/``munmap_pages`` must be indistinguishable
from it in every piece of kernel state — buddy free sets and heaps,
``BuddyStats``, ``PhysUsage``, the VMA list, the allocation registry and
its order, VMM and identity statistics, page-table frames and slots (in
insertion order), and the DVM-BM bitmap's ``_perms`` order.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.common import faults
from repro.common.consts import PAGE_SIZE, SIZE_2M
from repro.common.errors import AddressSpaceError, MappingError
from repro.common.perms import Perm
from repro.core.config import scenario_configs
from repro.gen import layout, seeds
from repro.gen.layout import LayoutPlan, RegionSpec, gen_layout, realize
from repro.hw.bitmap import PermissionBitmap
from repro.kernel.kernel import Kernel
from repro.kernel.page_table import (
    LeafPTE,
    PermissionEntry,
    SwappedPTE,
    TablePointer,
)
from repro.kernel.vm_syscalls import MemPolicy

MB = 1 << 20
IDENTITY_CONFIGS = ("dvm_bm", "dvm_pe", "dvm_pe_plus", "ideal")


def per_call_fragment_phys(kernel, vmm, holes: int) -> None:
    """The prelude one syscall per page (the reference)."""
    board = [vmm.mmap(PAGE_SIZE, Perm.READ_ONLY, name=f"board{i}")
             for i in range(2 * holes)]
    i = 0
    while kernel.phys.allocator.largest_free_order() > layout._FRAG_SLACK_ORDER:
        order = kernel.phys.allocator.largest_free_order()
        vmm.mmap(PAGE_SIZE << order, Perm.READ_ONLY, name=f"hog{i}")
        i += 1
    for alloc in board[1::2]:
        vmm.munmap(alloc)


def _entry(entry):
    if type(entry) is LeafPTE:      # frozen: compares by value
        return entry
    if isinstance(entry, TablePointer):
        return ("node", _tree(entry.node))
    if isinstance(entry, PermissionEntry):
        return ("pe", list(entry.fields), entry.level, entry.num_fields)
    assert isinstance(entry, SwappedPTE)
    return ("swapped", entry.perm, entry.was_identity)


def _tree(node):
    return (node.level, node.phys_addr,
            [(index, _entry(e)) for index, e in node.entries.items()])


def kernel_state(kernel, proc) -> dict:
    """Every piece of state the batch syscalls touch, order included."""
    buddy = kernel.phys.allocator
    vmm = proc.vmm
    bitmap = vmm.perm_bitmap
    return {
        "free_sets": [sorted(s) for s in buddy._free_sets],
        "free_heaps": [list(h) for h in buddy._free_heaps],
        "free_bytes": buddy.free_bytes,
        "buddy_stats": asdict(buddy.stats),
        "usage": asdict(kernel.phys.usage),
        "vmas": [vars(v).copy() for v in proc.aspace.vmas()],
        "starts": list(proc.aspace._starts),
        "allocations": [(va, vars(a.vma).copy(), list(a.phys_chunks),
                         a.identity) for va, a in vmm._allocations.items()],
        "vmm_stats": asdict(vmm.stats),
        "identity_stats": asdict(vmm.identity_mapper.stats),
        "table": _tree(proc.page_table.root),
        "bitmap": None if bitmap is None else list(bitmap._perms.items()),
    }


def realized_state(realized) -> dict:
    state = kernel_state(realized.kernel, realized.process)
    state["region_vas"] = realized.region_vas
    state["region_sizes"] = realized.region_sizes
    return state


def boot(config):
    """A kernel and process wired the way ``realize`` wires them."""
    bitmap = (PermissionBitmap(cache_blocks=config.bitmap_cache_blocks)
              if config.mech == "dvm_bm" else None)
    factory = (lambda k, p: bitmap) if bitmap is not None else None
    kernel = Kernel(phys_bytes=64 * MB, policy=config.policy,
                    perm_bitmap_factory=factory)
    return kernel, kernel.spawn()


def prelude_states(config, holes, *, pre_pages=0, fault_spec=None):
    """State after the batch prelude and after the reference, same boot."""
    states = []
    for prelude in (layout._fragment_phys, per_call_fragment_phys):
        faults.configure(*fault_spec) if fault_spec else faults.configure(None)
        try:
            kernel, proc = boot(config)
            for i in range(pre_pages):
                proc.vmm.mmap(PAGE_SIZE, Perm.READ_WRITE, name=f"pre{i}")
            error = None
            try:
                prelude(kernel, proc.vmm, holes)
            except Exception as e:  # noqa: BLE001 - compared, not hidden
                error = (type(e).__name__, str(e))
            states.append(kernel_state(kernel, proc) | {"error": error})
        finally:
            faults.reset()
    return states


def fragment_seeds(count: int) -> list[int]:
    """The first ``count`` seeds whose plan runs the fragment prelude."""
    found = []
    seed = 0
    while len(found) < count:
        if gen_layout(seeds.rng_for(seed, "layout")).pressure == "fragment":
            found.append(seed)
        seed += 1
    return found


def config_for(plan, name):
    return scenario_configs(plan.scale, demand=plan.demand,
                            names=(name,))[name]


class TestRealizeMatchesPerCall:
    """Whole realizations: the prelude plus the mosaic mapped after it."""

    @pytest.mark.parametrize("name", IDENTITY_CONFIGS)
    def test_generated_plans(self, name, monkeypatch):
        fragment = fragment_seeds(200)
        plans = [gen_layout(seeds.rng_for(s, "layout")) for s in fragment]
        batch = [realized_state(realize(p, config_for(p, name)))
                 for p in plans]
        monkeypatch.setattr(layout, "_fragment_phys", per_call_fragment_phys)
        for seed, plan, got in zip(fragment, plans, batch):
            want = realized_state(realize(plan, config_for(plan, name)))
            assert got == want, f"seed {seed} under {name}"

    @pytest.mark.parametrize("name", IDENTITY_CONFIGS)
    @pytest.mark.parametrize("holes", [300, 510])
    def test_hand_made_plans_crossing_l1_nodes(self, name, holes,
                                               monkeypatch):
        # 600 and 1,020 board pages cross one and two 2 MB L1-node
        # boundaries; the mosaic's 5-page region then has to find a run.
        plan = LayoutPlan(
            regions=(RegionSpec(1, Perm.READ_WRITE),
                     RegionSpec(5, Perm.READ_ONLY),
                     RegionSpec(2, Perm.READ_WRITE)),
            phys_mb=64, pressure="fragment", reclaim_fraction=0.5,
            frag_holes=holes, unmap_region=1, demand=False,
            scale="default")
        got = realized_state(realize(plan, config_for(plan, name)))
        monkeypatch.setattr(layout, "_fragment_phys", per_call_fragment_phys)
        want = realized_state(realize(plan, config_for(plan, name)))
        assert got == want


class TestPreludeMatchesPerCall:
    @pytest.mark.parametrize("name", IDENTITY_CONFIGS)
    def test_last_odd_page_alone_in_a_fresh_node(self, name):
        # From an empty address space the board starts one page above
        # the table root, at the bottom of a 2 MB-aligned buddy block,
        # with the first L1 node's three table frames after page 0 and
        # the second L1 node's frame after page 508; page 1,019 (odd, so
        # unmapped) is the first page of the third L1 node, and
        # unmapping it must free that node.
        config = config_for(_PLAN, name)
        kernel, proc = boot(config)
        board = proc.vmm.mmap_pages(1020, Perm.READ_ONLY, name="board")
        last = board[-1]
        assert last.identity and last.va % SIZE_2M == 0
        assert proc.page_table.walk(last.va).level == 1
        frees = kernel.phys.allocator.stats.frees
        proc.vmm.munmap_pages(board[1::2])
        assert proc.page_table.walk(last.va).level == 2   # node gone
        assert kernel.phys.allocator.stats.frees == frees + 510 + 1
        got, want = prelude_states(config, 510)
        assert got == want

    @pytest.mark.parametrize("name", IDENTITY_CONFIGS)
    @pytest.mark.parametrize("pre_pages", [0, 1, 3])
    def test_board_after_earlier_mappings(self, name, pre_pages):
        got, want = prelude_states(config_for(_PLAN, name), 300,
                                   pre_pages=pre_pages)
        assert got == want

    @pytest.mark.parametrize("name", IDENTITY_CONFIGS)
    @pytest.mark.parametrize("k", [0, 1, 56, 99])
    def test_alloc_oom_on_the_kth_board_page(self, name, k):
        # Capped at one fire, found by seed: the k-th check of the
        # contiguous path is the k-th board page's frame, and that page
        # degrades to demand paging exactly as its mmap would (an odd
        # page is unmapped again at the end).
        seed = _seed_firing_first_at(k)
        got, want = prelude_states(config_for(_PLAN, name), 110,
                                   fault_spec=("alloc_oom:0.02:1", seed))
        assert got == want
        demand = [vma["name"] for _va, vma, _chunks, identity
                  in got["allocations"] if not identity]
        assert demand == ([] if k % 2 else [f"board{k}"])
        assert got["identity_stats"]["contiguity_failures"] == 1

    @pytest.mark.parametrize("name", IDENTITY_CONFIGS)
    @pytest.mark.parametrize("seed", range(4))
    def test_uncapped_alloc_oom(self, name, seed):
        # Several fires; when the demand fallback's own allocation fires
        # too, both sides raise the same error from the same state.
        got, want = prelude_states(config_for(_PLAN, name), 110,
                                   fault_spec=("alloc_oom:0.05", seed))
        assert got == want
        assert got["identity_stats"]["contiguity_failures"] >= 1


_PLAN = LayoutPlan(regions=(RegionSpec(1, Perm.READ_WRITE),), phys_mb=64,
                   pressure="fragment", reclaim_fraction=0.5,
                   frag_holes=110, unmap_region=None, demand=False,
                   scale="default")


def _seed_firing_first_at(k: int) -> int:
    """An injector seed whose first ``alloc_oom:0.02`` fire is check k."""
    for seed in range(10_000):
        injector = faults.FaultInjector(faults.parse_spec("alloc_oom:0.02"),
                                        seed=seed)
        fires = [injector.should_fire("alloc_oom") for _ in range(k + 1)]
        if fires[-1] and not any(fires[:-1]):
            return seed
    raise AssertionError(f"no seed fires first at check {k}")


class TestBatchFallback:
    """Pages the one-pass path cannot take go through mmap/munmap."""

    def policy_kernel(self, mode="dvm"):
        kernel = Kernel(phys_bytes=64 * MB, policy=MemPolicy(mode=mode))
        return kernel, kernel.spawn()

    def test_conventional_policy_maps_per_call(self):
        states = []
        for batch in (True, False):
            kernel, proc = self.policy_kernel("conventional")
            if batch:
                allocs = proc.vmm.mmap_pages(20, Perm.READ_ONLY, name="p")
                proc.vmm.munmap_pages(allocs[::3])
            else:
                allocs = [proc.vmm.mmap(PAGE_SIZE, Perm.READ_ONLY,
                                        name=f"p{i}") for i in range(20)]
                for alloc in allocs[::3]:
                    proc.vmm.munmap(alloc)
            assert not any(a.identity for a in allocs)
            states.append(kernel_state(kernel, proc))
        assert states[0] == states[1]

    def test_descending_frame_falls_back_mid_batch(self):
        # Holes: an order-2 block low and an order-1 block above it.  The
        # buddy splits the smaller block first, so the third page's frame
        # lies below the two placed before it.
        def run(batch):
            kernel, proc = self.policy_kernel()
            big = proc.vmm.mmap(3 * PAGE_SIZE, name="big")
            low = [proc.vmm.mmap(PAGE_SIZE, name=f"low{i}")
                   for i in range(40)]
            while 0 in kernel.phys.allocator.free_block_counts():
                proc.vmm.mmap(PAGE_SIZE, name="fill")
            four = next(i for i in range(40)
                        if low[i].va % (4 * PAGE_SIZE) == 0
                        and low[i + 3].va == low[i].va + 3 * PAGE_SIZE)
            two = next(i for i in range(four + 8, 40)
                       if low[i].va % (4 * PAGE_SIZE) == 2 * PAGE_SIZE
                       and low[i + 1].va == low[i].va + PAGE_SIZE)
            for alloc in low[four:four + 4] + low[two:two + 2]:
                proc.vmm.munmap(alloc)
            assert 0 not in kernel.phys.allocator.free_block_counts()
            if batch:
                allocs = proc.vmm.mmap_pages(10, Perm.READ_ONLY, name="b")
            else:
                allocs = [proc.vmm.mmap(PAGE_SIZE, Perm.READ_ONLY,
                                        name=f"b{i}") for i in range(10)]
            assert [a.va for a in allocs[:3]] == [
                low[two].va, low[two + 1].va, low[four].va]
            # The three-page area stops the munmap batch half way.
            gone = allocs[1::2] + [big, low[5]] + allocs[::4]
            if batch:
                proc.vmm.munmap_pages(gone)
            else:
                for alloc in gone:
                    proc.vmm.munmap(alloc)
            return kernel_state(kernel, proc)

        assert run(True) == run(False)

    def test_pe_in_the_way_falls_back(self):
        # A Permission Entry (no VMA, no frames) over 128 KB of the 2 MB
        # chunk after the first: the board crosses into that chunk, the
        # first page there cannot descend through the PE, and from it on
        # mmap splits the PE and later refuses to map over its field.
        def run(batch):
            kernel, proc = self.policy_kernel()
            second = (proc.page_table.root.phys_addr // SIZE_2M + 1) * SIZE_2M
            proc.page_table.map_identity_range(second + (128 << 10),
                                               128 << 10, Perm.READ_WRITE)
            assert proc.page_table.walk(second + (128 << 10)).is_pe
            error = None
            allocs = []
            try:
                if batch:
                    allocs = proc.vmm.mmap_pages(600, Perm.READ_ONLY,
                                                 name="b")
                else:
                    for i in range(600):
                        allocs.append(proc.vmm.mmap(PAGE_SIZE, Perm.READ_ONLY,
                                                    name=f"b{i}"))
            except MappingError as e:
                error = str(e)
            return error, kernel_state(kernel, proc)

        (error, got), want = run(True), run(False)
        assert error is not None and "already mapped" in error
        assert (error, got) == want
        assert sum(name.startswith("b") for name in
                   (v["name"] for v in got["vmas"])) > 512

    def test_double_munmap_raises_after_the_first(self):
        kernel, proc = self.policy_kernel()
        allocs = proc.vmm.mmap_pages(6, Perm.READ_ONLY, name="b")
        ref_kernel, ref_proc = self.policy_kernel()
        ref = [ref_proc.vmm.mmap(PAGE_SIZE, Perm.READ_ONLY, name=f"b{i}")
               for i in range(6)]
        with pytest.raises(AddressSpaceError):
            proc.vmm.munmap_pages([allocs[1], allocs[2], allocs[1]])
        ref_proc.vmm.munmap(ref[1])
        ref_proc.vmm.munmap(ref[2])
        with pytest.raises(AddressSpaceError):
            ref_proc.vmm.munmap(ref[1])
        assert kernel_state(kernel, proc) == kernel_state(ref_kernel,
                                                          ref_proc)

    def test_occupied_slot_raises_like_mmap(self):
        # A stray L1 leaf (no VMA) at the second board page's VA: the
        # page after ``first`` and its three table frames.  mmap reserves
        # that page's VMA, then refuses to map over the leaf.
        def run(batch):
            kernel, proc = self.policy_kernel()
            first = proc.vmm.mmap(PAGE_SIZE, name="first")
            stray = first.va + 5 * PAGE_SIZE
            proc.page_table.map_page(stray, stray, Perm.READ_ONLY)
            with pytest.raises(MappingError, match="already mapped"):
                if batch:
                    proc.vmm.mmap_pages(10, Perm.READ_ONLY, name="b")
                else:
                    for i in range(10):
                        proc.vmm.mmap(PAGE_SIZE, Perm.READ_ONLY, name=f"b{i}")
            return kernel_state(kernel, proc)

        got = run(True)
        assert got == run(False)
        assert [v["name"] for v in got["vmas"]] == ["first", "b0", "b1"]


class TestBitmapBulkRanges:
    def per_page(self, ops):
        perms: dict = {}
        for op, va, size, perm in ops:
            for page in range(va // PAGE_SIZE, (va + size) // PAGE_SIZE):
                if op == "set":
                    perms[page] = perm
                else:
                    perms.pop(page, None)
        return list(perms.items())

    def test_bulk_ranges_match_per_page_loops_in_order(self):
        import random
        rng = random.Random(11)
        perms = (Perm.READ_ONLY, Perm.READ_WRITE, Perm.READ_EXECUTE)
        ops = []
        for _ in range(400):
            va = rng.randrange(0, 256) * PAGE_SIZE
            size = rng.choice((1, 2, 7, 32, 100)) * PAGE_SIZE
            ops.append(("set" if rng.random() < 0.6 else "clear", va, size,
                        rng.choice(perms)))
        bitmap = PermissionBitmap()
        for op, va, size, perm in ops:
            if op == "set":
                bitmap.set_range(va, size, perm)
            else:
                bitmap.clear_range(va, size)
        assert list(bitmap._perms.items()) == self.per_page(ops)

    def test_ranges_stay_page_checked(self):
        bitmap = PermissionBitmap()
        with pytest.raises(ValueError):
            bitmap.set_range(PAGE_SIZE + 1, PAGE_SIZE, Perm.READ_ONLY)
        with pytest.raises(ValueError):
            bitmap.clear_range(0, PAGE_SIZE // 2)
