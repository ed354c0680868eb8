"""x86-64 4-level page tables with Permission Entries (paper Section 4.1.1).

Page-table nodes are real 4 KB frames allocated from :class:`PhysicalMemory`
(tagged ``page_table``), so the hardware walk caches — which are physically
indexed — see faithful entry addresses, and Table 1's page-table-size
accounting falls out of the frame counts.

Three entry kinds exist at any level:

* :class:`TablePointer` — points to the next-lower node (a PDE/PDPTE/PML4E).
* :class:`LeafPTE` — terminates translation; maps a 4 KB page at L1, a 2 MB
  huge page at L2, or a 1 GB huge page at L3.  It holds ``pa - va``, not a
  PA, so one immutable entry is shared by every slot of a mapped run
  (``delta == 0`` for identity leaves); any change replaces the slot.
* :class:`PermissionEntry` — the paper's new leaf format: sixteen 2-bit
  permission fields for sixteen aligned sub-regions of the entry's VA span,
  with the implicit guarantee that mapped memory in the span is
  identity-mapped (PA == VA).

Identity-mapped ranges are installed with PEs at the highest level whose
1/16-span granularity the range respects (128 KB at L2, 64 MB at L3, 32 GB
at L4); unaligned remainders fall back to regular identity PTEs whose
PFN == VPN, so a walk that reaches them still validates without a separate
translation walk (Section 4.1.1, "this avoids a separate walk").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.consts import (
    ENTRIES_PER_NODE,
    LEVEL_BITS,
    LEVEL_SPAN,
    LEVELS,
    NODE_SIZE,
    PAGE_SHIFT,
    PAGE_SIZE,
    PE_FIELDS,
    PTE_SIZE,
    level_base,
    level_index,
)
from repro.common.errors import MappingError
from repro.common.perms import Perm
from repro.common.util import is_aligned
from repro.kernel.phys import PhysicalMemory

#: Leaf page sizes by page-table level (L1: 4 KB, L2: 2 MB, L3: 1 GB).
LEAF_LEVEL_FOR_SIZE = {LEVEL_SPAN[1]: 1, LEVEL_SPAN[2]: 2, LEVEL_SPAN[3]: 3}

#: Right shift bringing a VA's index bits for each level to the bottom
#: (the inlined form of :func:`level_index` used on the walk path).
_LEVEL_SHIFT = {level: PAGE_SHIFT + (level - 1) * LEVEL_BITS
                for level in LEVELS}
_INDEX_MASK = ENTRIES_PER_NODE - 1
_PAGE_MASK = ~(PAGE_SIZE - 1)


@dataclass(frozen=True, slots=True)
class LeafPTE:
    """A terminal translation entry, shared by the slots of one run."""

    delta: int       # pa - va for every address the entry maps
    perm: Perm
    level: int       # 1, 2 or 3; determines the page size

    @property
    def page_size(self) -> int:
        """Size of the page this entry maps."""
        return LEVEL_SPAN[self.level]


@dataclass
class PermissionEntry:
    """A Permission Entry: per-sub-region permission fields.

    The paper's PE carries sixteen 2-bit fields (Figure 6).  The
    "Alternatives" of Section 4.1.1 — reusing spare PTE bits instead of a
    new format — carry fewer: four 512 KB regions at L2, eight 128 MB
    regions at L3.  ``num_fields`` selects the variant; sub-regions are
    always ``LEVEL_SPAN[level] / num_fields``.
    """

    fields: list[Perm]
    level: int                  # 2, 3 or 4
    num_fields: int = PE_FIELDS

    def __post_init__(self):
        if len(self.fields) != self.num_fields:
            raise ValueError(
                f"this Permission Entry has {self.num_fields} fields, got "
                f"{len(self.fields)}"
            )

    @property
    def region_size(self) -> int:
        """Bytes covered by one permission field."""
        return LEVEL_SPAN[self.level] // self.num_fields

    def field_index(self, va: int) -> int:
        """Which field covers ``va``."""
        return (va - level_base(va, self.level)) // self.region_size

    def perm_for(self, va: int) -> Perm:
        """Permission of the sub-region containing ``va``."""
        return self.fields[self.field_index(va)]

    def is_empty(self) -> bool:
        """True when every field is NONE (entry can be reclaimed)."""
        return all(p == Perm.NONE for p in self.fields)


@dataclass
class SwappedPTE:
    """A not-present L1 entry whose page was swapped out (reclamation).

    Keeps the permission so swap-in can restore it; accesses fault with
    ``swapped=True`` so the kernel's reclaimer can bring the page back
    (Section 4.3.2's low-memory path, which the paper describes but does
    not implement).
    """

    perm: Perm
    was_identity: bool


@dataclass
class TablePointer:
    """An internal entry pointing at the next-lower page-table node."""

    node: "PageTableNode"


@dataclass
class PageTableNode:
    """One 4 KB page-table node (512 entries) with physical backing."""

    level: int
    phys_addr: int
    entries: dict[int, object] = field(default_factory=dict)

    def entry_addr(self, index: int) -> int:
        """Physical address of the entry at ``index`` (for walk caches)."""
        return self.phys_addr + index * PTE_SIZE

    def live_entries(self) -> int:
        """Number of non-vacant entries."""
        return len(self.entries)


@dataclass
class WalkResult:
    """Outcome of a page-table walk for a single VA."""

    va: int
    ok: bool                 # a mapping (PE or leaf) was found
    perm: Perm               # permission found (NONE on fault)
    pa: int | None           # translated PA (== va when validated by a PE)
    level: int               # level at which the walk terminated
    is_pe: bool              # terminated at a Permission Entry
    identity: bool           # PA == VA for this mapping
    visited: list[int]       # physical addresses of the entries touched
    swapped: bool = False    # faulted on a swapped-out page

    @property
    def depth(self) -> int:
        """Number of page-table accesses the walk performed."""
        return len(self.visited)


#: Permission-field counts by level for each PE format (Section 4.1.1):
#: the paper's 16-field PE at L2-L4, and the spare-PTE-bits alternative
#: (four 512 KB regions at L2, eight 128 MB at L3, nothing at L4).
PE_FORMATS = {
    "pe16": {2: 16, 3: 16, 4: 16},
    "spare_bits": {2: 4, 3: 8},
}


class PageTable:
    """A 4-level page table bound to a physical memory for node frames."""

    def __init__(self, phys: PhysicalMemory, use_pes: bool = True,
                 pe_format: str = "pe16"):
        if pe_format not in PE_FORMATS:
            raise ValueError(f"unknown PE format {pe_format!r}; "
                             f"have {sorted(PE_FORMATS)}")
        self.phys = phys
        self.use_pes = use_pes
        self.pe_format = pe_format
        self._pe_fields = PE_FORMATS[pe_format]
        self.root = self._new_node(4)

    # -- mapping --------------------------------------------------------------

    def map_page(self, va: int, pa: int, perm: Perm,
                 page_size: int = PAGE_SIZE) -> None:
        """Install a leaf PTE mapping ``va`` -> ``pa`` with ``perm``."""
        level = _leaf_level(va, pa, page_size)
        node = self._descend_to(va, level, create=True)
        _fill_leaves(node.entries, level_index(va, level), va, pa, 1,
                     perm, level)

    def map_range(self, va: int, pa: int, size: int, perm: Perm,
                  page_size: int = PAGE_SIZE) -> None:
        """Map ``size`` bytes with fixed-size leaf PTEs.

        Works one leaf-level node (512 PTEs) at a time: one descent per
        node, then the node's entries are filled in ascending VA order.
        On a collision the pages before it stay mapped, exactly as if
        each page had been mapped on its own.
        """
        if not is_aligned(size, page_size):
            raise MappingError(f"size {size:#x} not a multiple of {page_size:#x}")
        if size <= 0:
            return
        level = _leaf_level(va, pa, page_size)
        node_span = page_size << LEVEL_BITS
        end = va + size
        cursor = va
        while cursor < end:
            stop = min(end, (cursor | (node_span - 1)) + 1)
            node = self._descend_to(cursor, level, create=True)
            _fill_leaves(node.entries, level_index(cursor, level), cursor,
                         pa + (cursor - va), (stop - cursor) // page_size,
                         perm, level)
            cursor = stop

    def map_range_best_effort(self, va: int, pa: int, size: int, perm: Perm,
                              preferred_page_size: int = PAGE_SIZE) -> dict[int, int]:
        """Map a range using huge pages where alignment allows, 4 KB elsewhere.

        Models THP-style mapping for the 2M/1G baseline configurations: the
        co-aligned middle of the range gets ``preferred_page_size`` pages,
        head and tail get 4 KB pages.  Returns a histogram
        ``{page_size: count}`` of pages installed.
        """
        if not is_aligned(size, PAGE_SIZE):
            raise MappingError("size must be page aligned")
        if (va - pa) % preferred_page_size != 0:
            # VA and PA disagree modulo the huge-page size: no huge pages fit.
            self.map_range(va, pa, size, perm, PAGE_SIZE)
            return {PAGE_SIZE: size // PAGE_SIZE}
        counts: dict[int, int] = {}
        end = va + size
        huge = preferred_page_size
        head_end = min(end, -(-va // huge) * huge)  # align_up(va, huge)
        body = (end - head_end) // huge * huge
        for start, length, page_size in ((va, head_end - va, PAGE_SIZE),
                                         (head_end, body, huge),
                                         (head_end + body,
                                          end - head_end - body, PAGE_SIZE)):
            if length > 0:
                self.map_range(start, pa + (start - va), length, perm,
                               page_size)
                counts[page_size] = (counts.get(page_size, 0)
                                     + length // page_size)
        return counts

    def map_identity_range(self, va: int, size: int, perm: Perm) -> None:
        """Map an identity (PA == VA) range, preferring Permission Entries.

        Greedy top-down covering: at each level 4..2, a span-aligned chunk
        whose intersection with the range is exactly a whole number of
        1/16-span sub-regions — and whose entry is vacant or an existing
        compatible PE — is covered by setting PE fields.  Whatever remains
        is mapped with regular identity 4 KB PTEs (PFN == VPN).

        With ``use_pes=False`` the whole range gets identity 4 KB PTEs,
        which is the Table 1 baseline.
        """
        if not is_aligned(va, PAGE_SIZE) or not is_aligned(size, PAGE_SIZE):
            raise MappingError("identity ranges must be page aligned")
        if not self.use_pes:
            self.map_range(va, va, size, perm, PAGE_SIZE)
            return
        self._cover_identity(self.root, va, va + size, perm)

    def _cover_identity(self, node: PageTableNode, start: int, end: int,
                        perm: Perm) -> None:
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
            # The covered slice must start and stop on sub-region boundaries
            # within this chunk, and must not collide with a non-PE entry.
            pe_ok = (
                sub is not None
                and cursor % sub == 0
                and (chunk_end % sub == 0)
                and isinstance(existing, (PermissionEntry, type(None)))
            )
            if pe_ok:
                if existing is None:
                    entry = PermissionEntry(
                        fields=[Perm.NONE] * nfields, level=level,
                        num_fields=nfields,
                    )
                    node.entries[index] = entry
                else:
                    entry = existing
                first = (cursor - chunk_base) // sub
                last = (chunk_end - chunk_base) // sub  # exclusive
                for f in range(first, last):
                    if entry.fields[f] != Perm.NONE:
                        raise MappingError(
                            f"PE field overlap at va {chunk_base + f * sub:#x}"
                        )
                    entry.fields[f] = perm
            elif level > 1:
                if isinstance(existing, LeafPTE):
                    raise MappingError(
                        f"range [{cursor:#x}, {chunk_end:#x}) collides with an "
                        f"existing L{level} huge page"
                    )
                if isinstance(existing, PermissionEntry):
                    # An earlier allocation covered this chunk with a PE and
                    # the new range is not sub-region aligned: split the PE
                    # into a child table so both can coexist (the same
                    # surgery COW uses).
                    node.entries[index] = self._split_entry(existing, level,
                                                            cursor)
                child = self._child(node, index, create=True)
                if level - 1 == 1:
                    # L1: regular identity PTEs, no PEs below 128 KB grain.
                    _fill_leaves(child.entries, level_index(cursor, 1),
                                 cursor, cursor,
                                 (chunk_end - cursor) // PAGE_SIZE, perm, 1)
                else:
                    self._cover_identity(child, cursor, chunk_end, perm)
            else:  # pragma: no cover - _cover_identity starts at level 4
                raise MappingError("cannot cover identity range at L1 directly")
            cursor = chunk_end

    def identity_l1_node(self, va: int) -> PageTableNode | None:
        """The L1 node a one-page identity mapping at ``va`` fills.

        Missing nodes are created on the way down, in the order
        :meth:`map_identity_range` creates them for one page (no PE fits a
        single page at any level).  Returns None, having created only the
        nodes above it, where a PE or huge leaf sits on the path: that
        call would split or refuse it.
        """
        try:
            return self._descend_to(va, 1, create=True)
        except MappingError:
            return None

    @staticmethod
    def fill_identity_slots(slots: list[tuple[PageTableNode, list[int]]],
                            perm: Perm) -> None:
        """Install identity 4 KB leaves in vacant L1 slots.

        ``slots`` pairs each node from :meth:`identity_l1_node` with its
        slot indices in mapping order; every slot shares one entry.
        """
        leaf = LeafPTE(0, perm, 1)
        for node, indices in slots:
            node.entries.update(dict.fromkeys(indices, leaf))

    # -- protection changes and demotion (fork/COW support) --------------------

    def protect_range(self, va: int, size: int, perm: Perm) -> None:
        """Change the permission of every mapping in the range.

        Used by fork to drop private writable mappings to read-only for
        copy-on-write.  PE fields covered by the range must align to the PE
        sub-region granularity (true for ranges installed as one VMA).
        Unmapped gaps are left untouched.
        """
        if not is_aligned(va, PAGE_SIZE) or not is_aligned(size, PAGE_SIZE):
            raise MappingError("protect ranges must be page aligned")
        self._protect(self.root, va, va + size, perm)

    def _protect(self, node: PageTableNode, start: int, end: int,
                 perm: Perm) -> None:
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
                        f"protect of [{cursor:#x}, {chunk_end:#x}) is not "
                        f"aligned to the PE sub-region size {sub:#x}"
                    )
                first = (cursor - chunk_base) // sub
                last = (chunk_end - chunk_base) // sub
                for f in range(first, last):
                    if entry.fields[f] != Perm.NONE:
                        entry.fields[f] = perm
            elif isinstance(entry, SwappedPTE):
                entry.perm = perm
            elif isinstance(entry, LeafPTE):
                if cursor != chunk_base or chunk_end != chunk_base + entry.page_size:
                    raise MappingError(
                        f"partial protect of a {entry.page_size:#x}-byte page"
                    )
                # Shared by its run: replace this slot, never mutate.
                node.entries[index] = LeafPTE(entry.delta, perm, entry.level)
            else:
                self._protect(entry.node, cursor, chunk_end, perm)
            cursor = chunk_end

    def demote_to_l1(self, va: int) -> None:
        """Split the mapping covering ``va`` until it is a 4 KB L1 PTE.

        Permission Entries split one level at a time: an L3 PE becomes an L3
        table pointer whose allocated 2 MB chunks get L2 PEs with uniform
        fields; huge leaf PTEs split into 512 next-level leaves.  This is
        the page-table surgery behind copy-on-write of identity-mapped
        memory (paper Section 5): after demotion, one L1 entry can be
        repointed at a private copy while its neighbours stay identity
        mapped.
        """
        while True:
            node = self.root
            while True:
                index = level_index(va, node.level)
                entry = node.entries.get(index)
                if entry is None:
                    raise MappingError(f"va {va:#x} is not mapped")
                if isinstance(entry, TablePointer):
                    node = entry.node
                    continue
                break
            if node.level == 1:
                return
            node.entries[index] = self._split_entry(entry, node.level, va)

    def _split_entry(self, entry, level: int, va: int) -> TablePointer:
        """Replace a level-``level`` PE or huge leaf with a child table."""
        child = self._new_node(level - 1)
        chunk_base = level_base(va, level)
        child_span = LEVEL_SPAN[level - 1]
        if isinstance(entry, PermissionEntry):
            for child_index in range(ENTRIES_PER_NODE):
                child_va = chunk_base + child_index * child_span
                perm = entry.perm_for(child_va)
                if perm == Perm.NONE:
                    continue
                nfields = self._pe_fields.get(level - 1)
                if level - 1 >= 2 and nfields:
                    # One level down, a PE sub-region is >= the child span,
                    # so the child entry's fields are uniform.
                    child.entries[child_index] = PermissionEntry(
                        fields=[perm] * nfields, level=level - 1,
                        num_fields=nfields,
                    )
                else:
                    child.entries[child_index] = LeafPTE(0, perm, 1)
        elif isinstance(entry, LeafPTE):
            child.entries = dict.fromkeys(
                range(ENTRIES_PER_NODE),
                LeafPTE(entry.delta, entry.perm, level - 1))
        else:
            raise MappingError("only PEs and huge leaves can be split")
        return TablePointer(node=child)

    def set_l1(self, va: int, pa: int, perm: Perm) -> None:
        """Overwrite the L1 entry for ``va`` (demoting larger mappings first).

        This is the COW write path: the faulting page is repointed at its
        private copy with write permission.
        """
        self.demote_to_l1(va)
        node = self._descend_to(va, 1, create=True)
        node.entries[level_index(va, 1)] = LeafPTE(
            (pa & _PAGE_MASK) - (va & _PAGE_MASK), perm, 1)

    # -- swapping (low-memory reclamation, Section 4.3.2) -----------------------

    def swap_out_range(self, va: int, size: int
                       ) -> list[tuple[int, int, bool, Perm]]:
        """Mark every mapped page in the range swapped out.

        PEs covering the range are first converted to standard PTEs (the
        paper's "convert permission entries to standard PTEs and swap out
        memory").  Returns ``(page_va, old_pa, was_identity, perm)`` for
        each page so the caller can free the frames and keep the
        permission; unmapped gaps are skipped.

        Works one L1 node (2 MB of VA) at a time: the covering PE or huge
        leaf is demoted once, at the node's first mapped page, so
        page-table frames are allocated in ascending VA order.
        """
        if not is_aligned(va, PAGE_SIZE) or not is_aligned(size, PAGE_SIZE):
            raise MappingError("swap ranges must be page aligned")
        out: list[tuple[int, int, bool, Perm]] = []
        end = va + size
        span = LEVEL_SPAN[2]
        cursor = va
        while cursor < end:
            stop = min(end, (cursor | (span - 1)) + 1)
            page = next((p for p in range(cursor, stop, PAGE_SIZE)
                         if self.walk(p).ok), None)
            cursor = stop
            if page is None:
                continue
            self.demote_to_l1(page)
            entries = self._descend_to(page, 1, create=False).entries
            first = level_index(page, 1)
            for index in range(first, first + (stop - page) // PAGE_SIZE):
                entry = entries.get(index)
                if type(entry) is LeafPTE:
                    was_identity = entry.delta == 0
                    out.append((page, page + entry.delta, was_identity,
                                entry.perm))
                    entries[index] = SwappedPTE(perm=entry.perm,
                                                was_identity=was_identity)
                page += PAGE_SIZE
        return out

    def swap_in_page(self, va: int, pa: int) -> Perm:
        """Restore a swapped-out page at a (possibly different) frame.

        Returns the page's permission.  The restored mapping is identity
        only if ``pa == va`` — reclamation generally breaks identity until
        the OS reorganises memory (:mod:`repro.kernel.reclaim`).
        """
        node = self._descend_to(va & _PAGE_MASK, 1, create=False)
        index = level_index(va, 1)
        entry = node.entries.get(index)
        if not isinstance(entry, SwappedPTE):
            raise MappingError(f"va {va:#x} is not swapped out")
        node.entries[index] = LeafPTE((pa & _PAGE_MASK) - (va & _PAGE_MASK),
                                      entry.perm, 1)
        return entry.perm

    # -- unmapping ------------------------------------------------------------

    def unmap_range(self, va: int, size: int) -> None:
        """Remove all mappings (PTEs and PE fields) covering the range.

        Page-table nodes left empty are freed back to physical memory.
        The range must be page aligned and, where it intersects PEs, aligned
        to the PE sub-region granularity.
        """
        if not is_aligned(va, PAGE_SIZE) or not is_aligned(size, PAGE_SIZE):
            raise MappingError("unmap ranges must be page aligned")
        self._clear(self.root, va, va + size)

    def _clear(self, node: PageTableNode, start: int, end: int) -> None:
        level = node.level
        if level == 1:
            # L1 holds only 4 KB leaves and swapped PTEs: drop them whole.
            entries = node.entries
            first = level_index(start, 1)
            for index in range(first, first + (end - start) // PAGE_SIZE):
                entries.pop(index, None)
            return
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
                        f"unmap of [{cursor:#x}, {chunk_end:#x}) is not aligned "
                        f"to the PE sub-region size {sub:#x}"
                    )
                first = (cursor - chunk_base) // sub
                last = (chunk_end - chunk_base) // sub
                for f in range(first, last):
                    entry.fields[f] = Perm.NONE
                if entry.is_empty():
                    del node.entries[index]
            elif isinstance(entry, SwappedPTE):
                del node.entries[index]
            elif isinstance(entry, LeafPTE):
                if cursor != chunk_base or chunk_end != chunk_base + entry.page_size:
                    raise MappingError(
                        f"partial unmap of a {entry.page_size:#x}-byte page "
                        f"at {chunk_base:#x}"
                    )
                del node.entries[index]
            else:  # TablePointer
                child = entry.node
                self._clear(child, cursor, chunk_end)
                if not child.entries:
                    self.phys.free_frame(child.phys_addr, purpose="page_table")
                    del node.entries[index]
            cursor = chunk_end

    def unmap_l1_page(self, va: int) -> bool:
        """Remove the 4 KB leaf at ``va`` as ``unmap_range(va, PAGE_SIZE)``
        would, freeing the nodes that empty, lowest level first.

        Returns False, changing nothing, unless table pointers lead down
        to an L1 leaf at ``va``.
        """
        path = []
        node = self.root
        while node.level > 1:
            index = (va >> _LEVEL_SHIFT[node.level]) & _INDEX_MASK
            entry = node.entries.get(index)
            if type(entry) is not TablePointer:
                return False
            path.append((node, index))
            node = entry.node
        index = (va >> PAGE_SHIFT) & _INDEX_MASK
        if type(node.entries.get(index)) is not LeafPTE:
            return False
        del node.entries[index]
        while not node.entries and path:
            parent, index = path.pop()
            self.phys.free_frame(node.phys_addr, purpose="page_table")
            del parent.entries[index]
            node = parent
        return True

    # -- walking --------------------------------------------------------------

    def walk(self, va: int) -> WalkResult:
        """Walk the table for ``va``, recording every entry touched.

        Terminates at the first PE or leaf PTE (paper: "a page walk ends on
        encountering a PE").
        """
        node = self.root
        visited: list[int] = []
        while True:
            level = node.level
            index = (va >> _LEVEL_SHIFT[level]) & _INDEX_MASK
            visited.append(node.phys_addr + index * PTE_SIZE)
            entry = node.entries.get(index)
            kind = type(entry)
            if kind is TablePointer:
                node = entry.node
                continue
            if kind is LeafPTE:
                return WalkResult(va=va, ok=True, perm=entry.perm,
                                  pa=va + entry.delta, level=level, is_pe=False,
                                  identity=entry.delta == 0, visited=visited)
            if kind is PermissionEntry:
                perm = entry.perm_for(va)
                ok = perm != Perm.NONE
                return WalkResult(va=va, ok=ok, perm=perm,
                                  pa=va if ok else None, level=level,
                                  is_pe=True, identity=ok, visited=visited)
            if kind is SwappedPTE:
                return WalkResult(va=va, ok=False, perm=entry.perm, pa=None,
                                  level=level, is_pe=False,
                                  identity=False, visited=visited,
                                  swapped=True)
            return WalkResult(va=va, ok=False, perm=Perm.NONE, pa=None,
                              level=level, is_pe=False,
                              identity=False, visited=visited)

    def translate(self, va: int) -> int | None:
        """Convenience: translated PA for ``va`` or None if unmapped."""
        result = self.walk(va)
        return result.pa if result.ok else None

    # -- accounting (Table 1) ---------------------------------------------------

    def node_count(self) -> int:
        """Total number of page-table nodes (each one 4 KB frame)."""
        return sum(1 for _ in self._iter_nodes(self.root))

    def table_bytes(self) -> int:
        """Total page-table size in bytes (Table 1's metric)."""
        return self.node_count() * NODE_SIZE

    def bytes_by_level(self) -> dict[int, int]:
        """Page-table bytes broken down by node level.

        Table 1 reports L1 PTE storage as ~98–99% of conventional tables;
        this exposes the same breakdown.
        """
        out: dict[int, int] = {}
        for node in self._iter_nodes(self.root):
            out[node.level] = out.get(node.level, 0) + NODE_SIZE
        return out

    def entry_counts(self) -> dict[str, int]:
        """Counts of live entries by kind (pe / leaf / table)."""
        counts = {"pe": 0, "leaf": 0, "table": 0}
        for node in self._iter_nodes(self.root):
            for entry in node.entries.values():
                if isinstance(entry, PermissionEntry):
                    counts["pe"] += 1
                elif isinstance(entry, LeafPTE):
                    counts["leaf"] += 1
                else:
                    counts["table"] += 1
        return counts

    # -- internals --------------------------------------------------------------

    def _new_node(self, level: int) -> PageTableNode:
        frame = self.phys.alloc_frame(purpose="page_table")
        return PageTableNode(level=level, phys_addr=frame)

    def _child(self, node: PageTableNode, index: int,
               create: bool) -> PageTableNode:
        entry = node.entries.get(index)
        if entry is None:
            if not create:
                raise MappingError("missing intermediate page-table node")
            child = self._new_node(node.level - 1)
            node.entries[index] = TablePointer(node=child)
            return child
        if not isinstance(entry, TablePointer):
            raise MappingError(
                f"entry at level {node.level} index {index} is a leaf/PE, "
                f"not a table pointer"
            )
        return entry.node

    def _descend_to(self, va: int, target_level: int,
                    create: bool) -> PageTableNode:
        node = self.root
        while node.level > target_level:
            index = (va >> _LEVEL_SHIFT[node.level]) & _INDEX_MASK
            entry = node.entries.get(index)
            if type(entry) is TablePointer:
                node = entry.node
            else:
                # Missing (create or raise) or a leaf/PE in the way.
                node = self._child(node, index, create)
        return node

    def _iter_nodes(self, node: PageTableNode):
        yield node
        for entry in node.entries.values():
            if isinstance(entry, TablePointer):
                yield from self._iter_nodes(entry.node)


def _leaf_level(va: int, pa: int, page_size: int) -> int:
    """Validate a leaf mapping's page size and alignment; returns its level."""
    level = LEAF_LEVEL_FOR_SIZE.get(page_size)
    if level is None:
        raise MappingError(f"unsupported page size {page_size}")
    if not is_aligned(va, page_size) or not is_aligned(pa, page_size):
        raise MappingError(
            f"va {va:#x} / pa {pa:#x} not aligned to page size {page_size:#x}"
        )
    return level


def _fill_leaves(entries: dict, first: int, va: int, pa: int, count: int,
                 perm: Perm, level: int) -> None:
    """Install ``count`` consecutive slots of one node, sharing one leaf.

    Slots go in ascending index order; a collision raises with the
    earlier slots already installed, as page-at-a-time mapping would.
    """
    leaf = LeafPTE(pa - va, perm, level)
    indices = range(first, first + count)
    if entries and not entries.keys().isdisjoint(indices):
        hit = next(index for index in indices if index in entries)
        entries.update(dict.fromkeys(range(first, hit), leaf))
        va += (hit - first) * LEVEL_SPAN[level]
        raise MappingError(f"va {va:#x} is already mapped")
    entries.update(dict.fromkeys(indices, leaf))
