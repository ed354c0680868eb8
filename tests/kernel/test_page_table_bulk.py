"""Per-node range operations of PageTable against a per-page reference.

``PerPageTable`` restates the range operations one 4 KB (or huge) page at
a time: every page repeats validation and a full descent, and swap-out
walks, demotes and descends page by page.  The bulk operations must be
indistinguishable from it — same page-table frames in the same order,
same ``node.entries`` insertion order, same buddy free lists, same
exceptions with the same partial state, same walks.
"""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, asdict

import pytest

from repro.common.consts import (
    LEVEL_SPAN,
    PAGE_SIZE,
    SIZE_1G,
    SIZE_2M,
    level_base,
    level_index,
)
from repro.common.errors import MappingError
from repro.common.perms import Perm
from repro.common.util import is_aligned
from repro.core.config import standard_configs
from repro.kernel.kernel import Kernel
from repro.kernel.page_table import (
    LEAF_LEVEL_FOR_SIZE,
    LeafPTE,
    PageTable,
    PermissionEntry,
    SwappedPTE,
    TablePointer,
    WalkResult,
)
from repro.kernel.phys import PhysicalMemory
from repro.sim.system import HeterogeneousSystem, SystemParams

MB = 1 << 20
KB128 = 128 << 10


class PerPageTable(PageTable):
    """Page-at-a-time formulation of the range operations (the oracle)."""

    def map_page(self, va, pa, perm, page_size=PAGE_SIZE):
        level = LEAF_LEVEL_FOR_SIZE.get(page_size)
        if level is None:
            raise MappingError(f"unsupported page size {page_size}")
        if not is_aligned(va, page_size) or not is_aligned(pa, page_size):
            raise MappingError(
                f"va {va:#x} / pa {pa:#x} not aligned to page size "
                f"{page_size:#x}")
        node = self._descend_to(va, level, create=True)
        index = level_index(va, level)
        if node.entries.get(index) is not None:
            raise MappingError(f"va {va:#x} is already mapped")
        node.entries[index] = LeafPTE(pa - va, perm, level)

    def map_range(self, va, pa, size, perm, page_size=PAGE_SIZE):
        if not is_aligned(size, page_size):
            raise MappingError(f"size {size:#x} not a multiple of {page_size:#x}")
        for offset in range(0, size, page_size):
            self.map_page(va + offset, pa + offset, perm, page_size)

    def map_range_best_effort(self, va, pa, size, perm,
                              preferred_page_size=PAGE_SIZE):
        if not is_aligned(size, PAGE_SIZE):
            raise MappingError("size must be page aligned")
        if (va - pa) % preferred_page_size != 0:
            self.map_range(va, pa, size, perm, PAGE_SIZE)
            return {PAGE_SIZE: size // PAGE_SIZE}
        counts: dict[int, int] = {}
        end = va + size
        cursor = va
        huge = preferred_page_size
        head_end = min(end, -(-cursor // huge) * huge)
        while cursor < head_end:
            self.map_page(cursor, pa + (cursor - va), perm, PAGE_SIZE)
            counts[PAGE_SIZE] = counts.get(PAGE_SIZE, 0) + 1
            cursor += PAGE_SIZE
        while cursor + huge <= end:
            self.map_page(cursor, pa + (cursor - va), perm, huge)
            counts[huge] = counts.get(huge, 0) + 1
            cursor += huge
        while cursor < end:
            self.map_page(cursor, pa + (cursor - va), perm, PAGE_SIZE)
            counts[PAGE_SIZE] = counts.get(PAGE_SIZE, 0) + 1
            cursor += PAGE_SIZE
        return counts

    def _cover_identity(self, node, start, end, perm):
        level = node.level
        span = LEVEL_SPAN[level]
        nfields = self._pe_fields.get(level)
        sub = span // nfields if nfields else None
        cursor = start
        while cursor < end:
            chunk_base = level_base(cursor, level)
            chunk_end = min(end, chunk_base + span)
            index = level_index(cursor, level)
            existing = node.entries.get(index)
            pe_ok = (sub is not None and cursor % sub == 0
                     and chunk_end % sub == 0
                     and isinstance(existing, (PermissionEntry, type(None))))
            if pe_ok:
                if existing is None:
                    entry = PermissionEntry(fields=[Perm.NONE] * nfields,
                                            level=level, num_fields=nfields)
                    node.entries[index] = entry
                else:
                    entry = existing
                first = (cursor - chunk_base) // sub
                last = (chunk_end - chunk_base) // sub
                for f in range(first, last):
                    if entry.fields[f] != Perm.NONE:
                        raise MappingError(
                            f"PE field overlap at va {chunk_base + f * sub:#x}")
                    entry.fields[f] = perm
            else:
                if isinstance(existing, LeafPTE):
                    raise MappingError(
                        f"range [{cursor:#x}, {chunk_end:#x}) collides with "
                        f"an existing L{level} huge page")
                if isinstance(existing, PermissionEntry):
                    node.entries[index] = self._split_entry(existing, level,
                                                            cursor)
                child = self._child(node, index, create=True)
                if level - 1 == 1:
                    for page in range(cursor, chunk_end, PAGE_SIZE):
                        pidx = level_index(page, 1)
                        if pidx in child.entries:
                            raise MappingError(
                                f"va {page:#x} is already mapped")
                        child.entries[pidx] = LeafPTE(0, perm, 1)
                else:
                    self._cover_identity(child, cursor, chunk_end, perm)
            cursor = chunk_end

    def swap_out_range(self, va, size):
        if not is_aligned(va, PAGE_SIZE) or not is_aligned(size, PAGE_SIZE):
            raise MappingError("swap ranges must be page aligned")
        out = []
        for page in range(va, va + size, PAGE_SIZE):
            if not self.walk(page).ok:
                continue
            self.demote_to_l1(page)
            node = self._descend_to(page, 1, create=False)
            index = level_index(page, 1)
            entry = node.entries[index]
            was_identity = entry.delta == 0
            node.entries[index] = SwappedPTE(perm=entry.perm,
                                             was_identity=was_identity)
            out.append((page, page + entry.delta, was_identity,
                        self.walk(page).perm))
        return out

    def _clear(self, node, start, end):
        level = node.level
        span = LEVEL_SPAN[level]
        cursor = start
        while cursor < end:
            chunk_base = level_base(cursor, level)
            chunk_end = min(end, chunk_base + span)
            index = level_index(cursor, level)
            entry = node.entries.get(index)
            if entry is None:
                pass
            elif isinstance(entry, PermissionEntry):
                sub = entry.region_size
                if cursor % sub or chunk_end % sub:
                    raise MappingError(
                        f"unmap of [{cursor:#x}, {chunk_end:#x}) is not "
                        f"aligned to the PE sub-region size {sub:#x}")
                first = (cursor - chunk_base) // sub
                last = (chunk_end - chunk_base) // sub
                for f in range(first, last):
                    entry.fields[f] = Perm.NONE
                if entry.is_empty():
                    del node.entries[index]
            elif isinstance(entry, SwappedPTE):
                del node.entries[index]
            elif isinstance(entry, LeafPTE):
                if (cursor != chunk_base
                        or chunk_end != chunk_base + entry.page_size):
                    raise MappingError(
                        f"partial unmap of a {entry.page_size:#x}-byte page "
                        f"at {chunk_base:#x}")
                del node.entries[index]
            else:
                child = entry.node
                self._clear(child, cursor, chunk_end)
                if not child.entries:
                    self.phys.free_frame(child.phys_addr, purpose="page_table")
                    del node.entries[index]
            cursor = chunk_end

    def walk(self, va):
        node = self.root
        visited = []
        while True:
            index = level_index(va, node.level)
            visited.append(node.entry_addr(index))
            entry = node.entries.get(index)
            if entry is None:
                return WalkResult(va=va, ok=False, perm=Perm.NONE, pa=None,
                                  level=node.level, is_pe=False,
                                  identity=False, visited=visited)
            if isinstance(entry, PermissionEntry):
                perm = entry.perm_for(va)
                ok = perm != Perm.NONE
                return WalkResult(va=va, ok=ok, perm=perm,
                                  pa=va if ok else None, level=node.level,
                                  is_pe=True, identity=ok, visited=visited)
            if isinstance(entry, SwappedPTE):
                return WalkResult(va=va, ok=False, perm=entry.perm, pa=None,
                                  level=node.level, is_pe=False,
                                  identity=False, visited=visited,
                                  swapped=True)
            if isinstance(entry, LeafPTE):
                pa = va + entry.delta
                return WalkResult(va=va, ok=True, perm=entry.perm, pa=pa,
                                  level=node.level, is_pe=False,
                                  identity=(pa == va), visited=visited)
            node = entry.node


# -- state capture -----------------------------------------------------------


def tree(node, base: int = 0) -> tuple:
    """Whole-subtree snapshot: frames, entries and their insertion order.

    ``base`` is the VA the node's first slot maps; each leaf slot is
    recorded with its own PA (slot VA + the leaf's delta), so a shared
    leaf and per-page leaves snapshot alike slot by slot.
    """
    span = LEVEL_SPAN[node.level]
    entries = []
    for index, entry in node.entries.items():
        kind = type(entry)
        if kind is TablePointer:
            entries.append((index, tree(entry.node, base + index * span)))
        elif kind is LeafPTE:
            entries.append((index, base + index * span + entry.delta,
                            entry.perm, entry.level))
        elif kind is PermissionEntry:
            entries.append((index, entry.level, tuple(entry.fields)))
        else:
            entries.append((index, entry.perm, entry.was_identity))
    return (node.level, node.phys_addr, entries)


def state(table: PageTable) -> tuple:
    allocator = table.phys.allocator
    return (tree(table.root),
            [sorted(free) for free in allocator._free_sets],
            allocator.free_bytes, asdict(table.phys.usage))


def outcome(call) -> tuple:
    """A call's return value, or its exception's type and message."""
    try:
        result = call()
    except (MappingError, ValueError) as e:
        return ("raised", type(e).__name__, str(e))
    if isinstance(result, dict):
        return ("ok", list(result.items()))
    return ("ok", result)


def walk_kind(result: WalkResult) -> str:
    if result.swapped:
        return "swapped"
    if not result.ok:
        return "unmapped"
    if result.is_pe:
        return "pe"
    return "huge" if result.level > 1 else "leaf"


# -- randomized operation sequences -------------------------------------------

#: Most VAs land in the first 4 GB (four L3 entries of one L3 node), so
#: operations collide, overlap and split each other's entries.
WINDOW = 4 << 30
PERMS = (Perm.READ_WRITE, Perm.READ_ONLY, Perm.READ_EXECUTE, Perm.NONE)
PERM_WEIGHTS = (5, 3, 2, 1)
ALIGNS = (PAGE_SIZE, 16 * PAGE_SIZE, KB128, SIZE_2M, 64 * MB, SIZE_1G)

#: Page counts for 4 KB-grained ranges: single pages, node-crossing runs
#: and a few multi-node spans.
PAGE_COUNTS = (1, 2, 31, 32, 200, 511, 512, 513, 1100, 2048)


class OpGen:
    """Seeded generator of page-table operations over a shared history."""

    def __init__(self, seed: int, use_pes: bool):
        self.rng = random.Random(seed)
        self.use_pes = use_pes
        self.ranges: list[tuple[int, int]] = []

    def perm(self) -> Perm:
        return self.rng.choices(PERMS, PERM_WEIGHTS)[0]

    def va(self, align: int) -> int:
        rng = self.rng
        if self.ranges and rng.random() < 0.7:
            base, size = rng.choice(self.ranges[-8:])
            # Inside an earlier range, or just past its end (the vacant
            # PE fields and L1 slots beside a mapping).
            offset = (size if rng.random() < 0.15
                      else rng.randrange(0, max(size, PAGE_SIZE)))
            va = base + offset
            return max(va - va % align, 0)
        return rng.randrange(0, WINDOW // align) * align

    def pages(self) -> int:
        return self.rng.choice(PAGE_COUNTS) * PAGE_SIZE

    def remember(self, va: int, size: int) -> None:
        self.ranges.append((va, max(size, PAGE_SIZE)))

    def op(self):
        rng = self.rng
        kind = rng.choices(("map", "best", "identity", "unmap", "swap"),
                           (4, 2, 4, 2, 2))[0]
        if kind == "map":
            page_size = rng.choices((PAGE_SIZE, SIZE_2M, SIZE_1G, 64 << 10),
                                    (12, 5, 2, 1))[0]
            count = (rng.choice(PAGE_COUNTS) if page_size == PAGE_SIZE
                     else rng.randint(1, 3))
            size = count * page_size
            va = self.va(page_size)
            pa = rng.randrange(0, WINDOW // page_size) * page_size
            if rng.random() < 0.05:
                va += PAGE_SIZE            # misaligned for huge pages
            if rng.random() < 0.05:
                size += PAGE_SIZE          # not a multiple of a huge page
            self.remember(va, size)
            return ("map_range", va, pa, size, self.perm(), page_size)
        if kind == "best":
            huge = rng.choice((SIZE_2M, SIZE_1G))
            va = self.va(rng.choice(ALIGNS[:4]))
            if rng.random() < 0.7:
                pa = va + rng.randrange(-2, 3) * huge
            else:
                pa = va + rng.randrange(1, 512) * PAGE_SIZE
            size = self.pages() + rng.randrange(0, 4) * SIZE_2M
            if huge == SIZE_1G and rng.random() < 0.2:
                # One 1 GB page plus a 4 KB tail (a 4 KB head would be
                # up to 1 GB of pages).
                va = self.va(SIZE_1G)
                pa = va + rng.randrange(0, 3) * SIZE_1G
                size += SIZE_1G
            self.remember(va, size)
            return ("map_range_best_effort", va, max(pa, 0), size,
                    self.perm(), huge)
        if kind == "identity":
            align = rng.choice(ALIGNS)
            va = self.va(align)
            if self.use_pes and rng.random() < 0.5:
                size = rng.randint(1, 8) * rng.choice((KB128, SIZE_2M,
                                                        64 * MB, SIZE_1G))
                if rng.random() < 0.1:
                    va, size = 0, 32 << 30      # one L4 PE field
            else:
                size = self.pages()
            self.remember(va, size)
            return ("map_identity_range", va, size, self.perm())
        va = self.va(rng.choice(ALIGNS[:4]))
        size = rng.choice((self.pages(), KB128, SIZE_2M,
                           rng.randint(1, 3) * SIZE_2M))
        if rng.random() < 0.05:
            size += 1                        # not page aligned
        self.remember(va, size)
        return ("unmap_range" if kind == "unmap" else "swap_out_range",
                va, size)

    def probes(self) -> list[int]:
        rng = self.rng
        vas = [rng.randrange(0, WINDOW // PAGE_SIZE) * PAGE_SIZE
               for _ in range(4)]
        for base, size in self.ranges[-6:]:
            last = base + size - PAGE_SIZE
            vas += [base, last, base + size // 2,
                    base + rng.randrange(0, size)]
        return vas


TABLE_KINDS = {
    "pe16": dict(use_pes=True, pe_format="pe16"),
    "spare_bits": dict(use_pes=True, pe_format="spare_bits"),
    "no_pes": dict(use_pes=False),
}


def twin_tables(kind: str) -> tuple[PageTable, PerPageTable]:
    return (PageTable(PhysicalMemory(size=96 * MB), **TABLE_KINDS[kind]),
            PerPageTable(PhysicalMemory(size=96 * MB), **TABLE_KINDS[kind]))


def same_step(bulk: PageTable, ref: PerPageTable, name: str, args,
              where: str) -> tuple:
    """Apply one operation to both tables; returns the shared outcome."""
    got = outcome(lambda: getattr(bulk, name)(*args))
    want = outcome(lambda: getattr(ref, name)(*args))
    where = f"{where}: {name}{tuple(args)}"
    assert got == want, where
    assert state(bulk) == state(ref), where
    return got


def run_sequence(kind: str, seed: int, ops: int = 30) -> set[str]:
    """Drive both tables through one sequence; returns walk kinds seen."""
    bulk, ref = twin_tables(kind)
    gen = OpGen(seed, TABLE_KINDS[kind]["use_pes"])
    seen: set[str] = set()
    for step in range(ops):
        name, *args = gen.op()
        where = f"{kind} seed {seed} step {step}"
        same_step(bulk, ref, name, args, where)
        for va in gen.probes():
            walked = ref.walk(va)
            assert asdict(bulk.walk(va)) == asdict(walked), (where, hex(va))
            seen.add(walk_kind(walked))
    return seen


class TestBulkMatchesPerPage:
    @pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
    def test_random_sequences_match(self, kind):
        seen: set[str] = set()
        for seed in range(8):
            seen |= run_sequence(kind, seed)
        # The probes must have compared every kind of walk outcome.
        want = {"leaf", "huge", "unmapped", "swapped"}
        if TABLE_KINDS[kind]["use_pes"]:
            want.add("pe")
        assert want <= seen

    @pytest.mark.parametrize("script", [
        # Swapping twice: the second pass skips already-swapped pages.
        [("map_identity_range", SIZE_2M, 64 * PAGE_SIZE, Perm.READ_WRITE),
         ("swap_out_range", SIZE_2M + 16 * PAGE_SIZE, 16 * PAGE_SIZE),
         ("swap_out_range", SIZE_2M, 64 * PAGE_SIZE)],
        # A swap over only the vacant fields of a PE demotes nothing.
        [("map_identity_range", SIZE_2M, 2 * KB128, Perm.READ_WRITE),
         ("swap_out_range", SIZE_2M + 8 * KB128, 4 * KB128),
         ("swap_out_range", SIZE_2M + KB128, 4 * KB128)],
        # A 1 GB leaf demoted for a swap in its middle, then unmapped.
        [("map_range", SIZE_1G, 0, SIZE_1G, Perm.READ_ONLY, SIZE_1G),
         ("swap_out_range", SIZE_1G + 3 * SIZE_2M - KB128, 2 * KB128),
         ("unmap_range", SIZE_1G, SIZE_1G)],
        # Unmapping part of an L1 node leaves its other entries in order.
        [("map_range", SIZE_2M, 0, SIZE_2M, Perm.READ_WRITE),
         ("unmap_range", SIZE_2M + PAGE_SIZE, SIZE_2M - 2 * PAGE_SIZE),
         ("map_range", SIZE_2M + 8 * PAGE_SIZE, 0, PAGE_SIZE,
          Perm.READ_ONLY)],
    ])
    def test_scripted_edge_cases(self, script):
        bulk, ref = twin_tables("pe16")
        for step, (name, *args) in enumerate(script):
            assert same_step(bulk, ref, name, args, f"step {step}")[0] == "ok"

    def test_collision_leaves_the_same_partial_state(self):
        bulk, ref = twin_tables("pe16")
        for table in (bulk, ref):
            table.map_page(0x40_0000 + 700 * PAGE_SIZE, 0, Perm.READ_ONLY)
        args = (0x40_0000, 0x80_0000, 1024 * PAGE_SIZE, Perm.READ_WRITE)
        got = outcome(lambda: bulk.map_range(*args))
        assert got[0] == "raised" and "already mapped" in got[2]
        assert got == outcome(lambda: ref.map_range(*args))
        assert state(bulk) == state(ref)
        # 700 pages went in before the collision, in VA order.
        assert bulk.entry_counts()["leaf"] == 701

    def test_swap_out_returns_each_pages_permission(self):
        bulk, ref = twin_tables("pe16")
        for table in (bulk, ref):
            table.map_identity_range(SIZE_2M, 4 * KB128, Perm.READ_ONLY)
            table.map_identity_range(SIZE_2M + 4 * KB128, 2 * KB128,
                                     Perm.READ_WRITE)
        got = bulk.swap_out_range(SIZE_2M, SIZE_2M)
        assert got == ref.swap_out_range(SIZE_2M, SIZE_2M)
        assert len(got) == 6 * KB128 // PAGE_SIZE
        assert {perm for *_, perm in got} == {Perm.READ_ONLY,
                                              Perm.READ_WRITE}
        assert state(bulk) == state(ref)


# -- per-node structure --------------------------------------------------------


def count_calls(monkeypatch, name: str) -> list[int]:
    calls = [0]
    original = getattr(PageTable, name)

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PageTable, name, counted)
    return calls


class TestPerNodeStructure:
    def test_boot_segments_take_one_descent_per_node(self, monkeypatch):
        # Code (1 MB), data (1 MB) and an 8 MB stack: 2,560 pages over
        # seven L1 nodes.
        proc = Kernel(phys_bytes=256 * MB).spawn()
        descents = count_calls(monkeypatch, "_descend_to")
        proc.setup_segments()
        assert proc.page_table.entry_counts()["leaf"] == 2560
        assert descents[0] <= 8

    def test_system_boot_maps_no_single_pages(self, monkeypatch):
        calls = count_calls(monkeypatch, "map_page")
        for config in standard_configs().values():
            HeterogeneousSystem(config, SystemParams(phys_bytes=256 * MB))
        assert calls[0] == 0


# -- shared leaf entries ---------------------------------------------------------

#: A 4 MB run of 4 KB leaves and a 4 MB run of 2 MB leaves.
SMALL_RUN = (0x4000_0000, 0x100_0000, PAGE_SIZE)
HUGE_RUN = (0x8000_0000, 0x200_0000, SIZE_2M)
FRAME = 0x500_0000


def one_page_ops(page: int) -> dict:
    """Operations that change one page of a run, as steps for same_step."""
    return {
        "protect": [("demote_to_l1", page),
                    ("protect_range", page, PAGE_SIZE, Perm.READ_ONLY)],
        "set_l1": [("set_l1", page, FRAME, Perm.READ_ONLY)],
        "swap": [("swap_out_range", page, PAGE_SIZE),
                 ("swap_in_page", page, FRAME)],
        "demote": [("demote_to_l1", page)],
        "unmap": [("demote_to_l1", page), ("unmap_range", page, PAGE_SIZE)],
    }


def leaf_objects(table: PageTable) -> set[int]:
    return {id(entry) for node in table._iter_nodes(table.root)
            for entry in node.entries.values() if type(entry) is LeafPTE}


class TestSharedLeafEntries:
    """A run's slots share one leaf, so changing a slot must replace it."""

    @pytest.mark.parametrize("op", sorted(one_page_ops(0)))
    @pytest.mark.parametrize("run", [SMALL_RUN, HUGE_RUN],
                             ids=["4k_leaves", "2m_leaves"])
    def test_one_page_change_leaves_the_run_alone(self, run, op):
        va, pa, page_size = run
        size = 4 * MB
        bulk, ref = twin_tables("no_pes")
        same_step(bulk, ref, "map_range",
                  (va, pa, size, Perm.READ_WRITE, page_size), "map")
        target = va + SIZE_2M + 5 * PAGE_SIZE
        for step, (name, *args) in enumerate(one_page_ops(target)[op]):
            assert same_step(bulk, ref, name, args, f"step {step}")[0] == "ok"
        for page in range(va, va + size, PAGE_SIZE):
            if page == target:
                continue
            walked = bulk.walk(page)
            assert (walked.pa, walked.perm) == (pa + page - va,
                                                Perm.READ_WRITE), hex(page)

    def test_leaves_are_immutable(self):
        table = PageTable(PhysicalMemory(size=96 * MB))
        table.map_range(*SMALL_RUN[:2], SIZE_2M, Perm.READ_WRITE)
        leaf = table._descend_to(SMALL_RUN[0], 1, create=False).entries[0]
        with pytest.raises(FrozenInstanceError):
            leaf.perm = Perm.READ_ONLY
        with pytest.raises(FrozenInstanceError):
            leaf.delta = 0

    @pytest.mark.parametrize("identity", [False, True],
                             ids=["map_range", "identity_no_pes"])
    def test_one_leaf_object_per_l1_node(self, identity):
        # 16 MB of 4 KB pages is 4,096 slots over eight L1 nodes.
        table = PageTable(PhysicalMemory(size=96 * MB), use_pes=False)
        va, pa, _ = SMALL_RUN
        if identity:
            table.map_identity_range(va, 16 * MB, Perm.READ_WRITE)
        else:
            table.map_range(va, pa, 16 * MB, Perm.READ_WRITE)
        assert table.entry_counts()["leaf"] == 4096
        assert len(leaf_objects(table)) <= 8
