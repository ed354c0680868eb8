"""The kernel facade: physical memory, processes and COW frame sharing.

A :class:`Kernel` owns one :class:`PhysicalMemory` and spawns processes
under a memory-management policy.  It also hosts the machinery that spans
processes: deterministic per-purpose RNGs (ASLR entropy), COW frame
refcounts, and — for the DVM-BM configuration — the flat permission bitmap
shared with the IOMMU.
"""

from __future__ import annotations

import functools
import itertools
import zlib

import numpy as np

from repro.common.consts import PAGE_SIZE
from repro.kernel.phys import PhysicalMemory
from repro.kernel.process import Process
from repro.kernel.vm_syscalls import MemPolicy

#: Default machine size: the paper's accelerator system has 32 GB (Table 2).
DEFAULT_PHYS_BYTES = 32 << 30


def _purpose_rng(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(purpose.encode())]))


@functools.lru_cache(maxsize=4096)
def _aslr_pages(seed: int, pid: int, bits: int) -> int:
    return int(_purpose_rng(seed, f"aslr-{pid}").integers(0, 1 << bits))


class Kernel:
    """The simulated operating system instance.

    Parameters
    ----------
    phys_bytes:
        Physical memory capacity.
    policy:
        Default memory-management policy for spawned processes.
    seed:
        Master seed; all per-process ASLR entropy derives from it, so runs
        are bit-for-bit reproducible.
    perm_bitmap_factory:
        Optional callable ``(kernel, process) -> bitmap`` supplying the
        DVM-BM permission bitmap for each process (see
        :mod:`repro.hw.bitmap`).
    """

    def __init__(self, phys_bytes: int = DEFAULT_PHYS_BYTES,
                 policy: MemPolicy | None = None, seed: int = 0,
                 perm_bitmap_factory=None, phys_base: int = 0):
        self.phys = PhysicalMemory(size=phys_bytes, base=phys_base)
        self.policy = policy or MemPolicy()
        self.seed = seed
        self.perm_bitmap_factory = perm_bitmap_factory
        self.processes: list[Process] = []
        #: Optional swap-based reclaimer (see :mod:`repro.kernel.reclaim`);
        #: when set, processes transparently swap pages back in on access.
        self.reclaimer = None
        self._pids = itertools.count(1)
        # COW frame sharing: (pa, size) -> number of extra owners.
        self._shared_chunks: dict[tuple[int, int], int] = {}

    # -- process management ------------------------------------------------------

    def spawn(self, policy: MemPolicy | None = None, aspace=None,
              name: str = "") -> Process:
        """Create a fresh process (posix_spawn semantics: nothing inherited)."""
        pid = next(self._pids)
        proc = Process(self, pid, policy or self.policy, aspace=aspace,
                       name=name)
        self.processes.append(proc)
        return proc

    def new_rng(self, purpose: str) -> np.random.Generator:
        """Deterministic RNG derived from the master seed and a purpose tag."""
        return _purpose_rng(self.seed, purpose)

    def aslr_pages(self, pid: int, bits: int) -> int:
        """Process ``pid``'s ASLR draw: the first
        ``integers(0, 1 << bits)`` of ``new_rng(f"aslr-{pid}")``.

        Memoized per ``(seed, pid, bits)``, so spawning a process does not
        build a generator for its one draw.
        """
        return _aslr_pages(self.seed, pid, bits)

    def bitmap_for(self, process: Process):
        """Permission bitmap for a process, if the DVM-BM factory is set."""
        if self.perm_bitmap_factory is None:
            return None
        return self.perm_bitmap_factory(self, process)

    # -- COW frame sharing ---------------------------------------------------------

    def share_frames(self, chunk: tuple[int, int]) -> None:
        """Record one more owner of a physical chunk (fork)."""
        pa, size = chunk
        if size <= 0 or pa % PAGE_SIZE:
            raise ValueError(f"bad shared chunk ({pa:#x}, {size:#x})")
        self._shared_chunks[chunk] = self._shared_chunks.get(chunk, 0) + 1

    def release_frames(self, chunk: tuple[int, int]) -> None:
        """Drop one owner of a shared chunk (child exit).

        Frames are physically freed by the original owner's munmap path, so
        releasing here only decrements the share count.
        """
        count = self._shared_chunks.get(chunk, 0)
        if count <= 1:
            self._shared_chunks.pop(chunk, None)
        else:
            self._shared_chunks[chunk] = count - 1

    def shared_owner_count(self, chunk: tuple[int, int]) -> int:
        """Number of extra owners currently sharing a chunk."""
        return self._shared_chunks.get(chunk, 0)
