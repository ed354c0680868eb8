"""Kernel-side guest fault handler (the OS half of the PRI round trip).

The IOMMU's :class:`~repro.hw.fault_queue.FaultPath` delivers recoverable
guest faults here, one at a time (:meth:`FaultHandler.service`) or, for
the fast engine's fault pre-delivery, a batch's predicted faults in one
pass (:meth:`FaultHandler.service_batch`).  Either way each fault gets
one fresh page-table walk (the hardware walker's memo deliberately drops
the ``swapped`` flag, so only an authoritative walk can tell a swapped
page from an unmapped one) and one classifier decides, before any
service runs, what the service is and what it yields:

* **major** — an unmapped page inside a demand allocation: back the
  containing policy-size chunk via
  :meth:`~repro.kernel.vm_syscalls.VMM.populate_for_fault` (only reached
  with ``MemPolicy(demand_faulting=True)``; eager policies never leave
  such holes).  The chunk is mapped at the VMA's protection, so the
  access is checked against ``alloc.vma.perm`` — no re-walk.
* **swap** — a page the reclaimer swapped out: bring it back through
  :meth:`~repro.kernel.reclaim.Reclaimer.swap_in`, mirroring the CPU-side
  path in :meth:`repro.kernel.process.Process.access`.
* **spurious** — the page is mapped with sufficient permission by the
  time the walk runs (e.g. a chaos-injected fault): nothing to do, the
  access retries.
* **violation** — anything else (permission denied, no backing
  allocation, swapped page but no reclaimer): the handler returns
  ``None`` and the fault path escalates to a structured
  :class:`~repro.common.errors.AccessViolation`.  A swap-in or page-in
  whose restored permission denies the access still runs first, then
  refuses.

The batch pass stops before the first fault that would escalate and
leaves it, and every later one, to per-fault delivery, so an abort
always happens in :meth:`FaultHandler.service`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.perms import allows
from repro.obs import core as obs_core


@dataclass
class FaultHandlerStats:
    """Counters for one fault handler's lifetime."""

    major: int = 0        # demand page-ins
    swap: int = 0         # swap-ins via the reclaimer
    spurious: int = 0     # already serviceable on arrival
    violations: int = 0   # refused (escalated by the fault path)


@dataclass
class FaultHandler:
    """Services guest faults for one process; see the module docstring."""

    kernel: object
    process: object
    stats: FaultHandlerStats = field(default_factory=FaultHandlerStats)

    def service(self, va: int, access: str) -> str | None:
        """Service one fault; returns its kind, or None for a violation."""
        action, kind, alloc = self._classify(
            va, access, self.process.page_table.walk(va))
        self._apply(action, va, alloc)
        self._count(kind or "violation", 1)
        return kind

    def service_batch(self, vas: list, accesses: list,
                      served: list) -> int:
        """Service a batch's faults in order; returns where it stopped.

        Fault pre-delivery's batch twin of :meth:`service`: one
        authoritative walk per site, then the same classification and
        service.  Each serviced site appends ``(i, kind)`` to ``served``.
        A site already mapped with sufficient permission is skipped (the
        access it stands for does not fault).  The pass stops *before*
        the first site that would escalate and returns its index
        (``len(vas)`` when none does), so the caller delivers that site
        and the rest one by one with the per-fault semantics.  Counters
        are charged once, for the sites served — also when a service
        raises (``OutOfMemoryError``) mid-pass.
        """
        walk = self.process.page_table.walk
        classify, apply = self._classify, self._apply
        stop = len(vas)
        try:
            for i, (va, access) in enumerate(zip(vas, accesses)):
                action, kind, alloc = classify(va, access, walk(va))
                if kind is None:
                    stop = i
                    break
                if action is not None:
                    apply(action, va, alloc)
                    served.append((i, kind))
        finally:
            swaps = sum(kind == "swap" for _, kind in served)
            self._count("swap", swaps)
            self._count("major", len(served) - swaps)
        return stop

    def _classify(self, va: int, access: str, result):
        """The one fault classifier: ``(action, kind, alloc)`` for a walk.

        ``action`` is the service to run — ``"swap"`` (reclaimer
        swap-in), ``"major"`` (demand page-in) or ``None`` — and
        ``kind`` the fault kind the service yields, ``None`` for a
        violation; ``alloc`` is the allocation a major fault pages in
        from (``None`` otherwise), handed on so it is looked up once.
        A service can run and still refuse: a swapped page comes back at
        its old permission and a demand chunk at its VMA's protection,
        which may deny the access.  Decided before the
        service from the pre-swap permission and ``alloc.vma.perm`` (the
        chunk is mapped at exactly that protection), so no re-walk.
        """
        if result.ok:
            return (None, "spurious" if allows(result.perm, access) else None,
                    None)
        if result.swapped:
            if getattr(self.kernel, "reclaimer", None) is None:
                return None, None, None
            return ("swap", "swap" if allows(result.perm, access) else None,
                    None)
        alloc = self.process.vmm.allocation_at(va)
        if alloc is None or alloc.identity:
            return None, None, None
        return ("major", "major" if allows(alloc.vma.perm, access) else None,
                alloc)

    def _apply(self, action: str | None, va: int, alloc) -> None:
        if action == "swap":
            self.kernel.reclaimer.swap_in(self.process, va)
        elif action == "major":
            self.process.vmm.populate_for_fault(va, alloc)

    def _count(self, kind: str, count: int) -> None:
        if not count:
            return
        if kind == "violation":
            self.stats.violations += count
        else:
            setattr(self.stats, kind, getattr(self.stats, kind) + count)
        if obs_core.ENABLED:
            obs_core.REGISTRY.counter("kernel.fault.serviced",
                                      kind=kind).inc(count)
