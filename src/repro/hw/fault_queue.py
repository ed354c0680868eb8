"""IOMMU fault queue: the PRI-style recoverable guest-fault path.

The paper's central motivation (Sections 2 and 4.3) is that accelerators
cannot tolerate page faults: servicing a fault from an IO device — an ATS
page request travelling to the root complex, a host interrupt, the OS
handler, and the response message — costs microseconds to milliseconds,
versus nanoseconds for a TLB miss.  DVM's eager identity mapping exists
precisely to make this path cold.  This module *models* the path instead
of crashing the simulation, so the cost DVM avoids becomes measurable:

* :class:`FaultRecord` — one structured guest fault (va, access type,
  fault kind, configuration, trace index, coalesce count).
* :class:`FaultQueue` — a bounded page-request queue with per-page fault
  coalescing and a request/service/response latency model.  A fault's
  engine stall is ``request + service + response`` cycles; a fault that
  coalesces onto a pending request for the same page pays only the
  response leg; a full queue stalls the engine for one extra service
  drain before admission.
* :class:`FaultPath` — glue between the queue and the kernel-side
  handler (:mod:`repro.kernel.fault`): delivers a fault, charges the
  stall, and escalates unserviceable faults to a structured
  :class:`~repro.common.errors.AccessViolation`.  A refused or raising
  delivery discards its record, so the queue is empty between
  deliveries.  :meth:`FaultPath.deliver_batch` is the fast engine's
  batch delivery: a batch's predicted faults in one handler pass, the
  queue charged once in closed form (a serial fault on an empty queue
  admits and retires at once), stopping before the first fault that
  would escalate.

The seven IOMMU configurations call :meth:`FaultPath.deliver` from their
fault sites instead of raising mid-stream; fault-free traces never touch
this module, so the default timing path is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.consts import PAGE_SHIFT
from repro.common.errors import AccessViolation
from repro.obs import core as obs_core
from repro.obs import record as obs_record

#: Default bounded capacity of the page-request queue (PRI queues are
#: small; SMMU/VT-d event queues hold a few hundred records).
DEFAULT_CAPACITY = 128

#: PRI message legs, in accelerator cycles.  At ~1 GHz the round trip
#: (request + service + response) is ~21 us — the low end of the paper's
#: "microseconds to milliseconds" fault-service cost.
DEFAULT_REQUEST_CYCLES = 600
DEFAULT_SERVICE_CYCLES = 20_000
DEFAULT_RESPONSE_CYCLES = 600


@dataclass
class FaultRecord:
    """One structured guest fault as seen by the IOMMU."""

    va: int                 # faulting virtual address
    access: str             # "r" | "w"
    kind: str               # "major" | "swap" | "perm" | "unmapped" |
    #                         "spurious" | "injected"
    config: str = ""        # MMU configuration name
    index: int = -1         # trace position (-1 when unknown)
    stream: int | None = None   # symbolic stream id, when the caller knows it
    coalesced: int = 0      # later faults absorbed by this record

    @property
    def page(self) -> int:
        """4 KB page number of the faulting address."""
        return self.va >> PAGE_SHIFT


@dataclass
class FaultQueueStats:
    """Counters for one fault queue's lifetime."""

    enqueued: int = 0        # records admitted (one per distinct service)
    coalesced: int = 0       # faults absorbed by a pending record
    serviced: int = 0        # records retired after successful service
    violations: int = 0      # faults escalated as access violations
    queue_full_stalls: int = 0   # admissions that waited for a free slot
    stall_cycles: int = 0    # total engine stall charged through the queue


class FaultQueue:
    """A bounded IOMMU page-request queue with per-page coalescing."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 request_cycles: int = DEFAULT_REQUEST_CYCLES,
                 service_cycles: int = DEFAULT_SERVICE_CYCLES,
                 response_cycles: int = DEFAULT_RESPONSE_CYCLES):
        if capacity < 1:
            raise ValueError(f"fault queue capacity must be >= 1, "
                             f"got {capacity}")
        self.capacity = capacity
        self.request_cycles = request_cycles
        self.service_cycles = service_cycles
        self.response_cycles = response_cycles
        self.stats = FaultQueueStats()
        self._pending: dict[int, FaultRecord] = {}

    @property
    def round_trip(self) -> int:
        """A primary fault's stall: request + service + response legs."""
        return (self.request_cycles + self.service_cycles
                + self.response_cycles)

    # -- queue operations ------------------------------------------------------

    def admit(self, record: FaultRecord) -> tuple[FaultRecord, int]:
        """Admit a fault; returns ``(record, admission stall cycles)``.

        A fault whose page already has a pending request coalesces onto
        it (the returned record is the pending one) and pays nothing at
        admission — its stall is the response leg, charged at retire.  A
        full queue stalls the engine for one service drain first.
        """
        pending = self._pending.get(record.page)
        if pending is not None:
            pending.coalesced += 1
            self.stats.coalesced += 1
            return pending, 0
        stall = 0
        if len(self._pending) >= self.capacity:
            # The queue is full: the engine stalls until the head-of-queue
            # service drains a slot.
            self.stats.queue_full_stalls += 1
            stall = self.service_cycles
            self._retire_oldest()
        self._pending[record.page] = record
        self.stats.enqueued += 1
        self.stats.stall_cycles += stall
        return record, stall

    def retire(self, record: FaultRecord, *, coalesced: bool = False) -> int:
        """Retire a serviced record; returns the service stall cycles.

        A primary fault pays the full PRI round trip; a coalesced fault
        waits only for the in-flight service's response leg.
        """
        self._pending.pop(record.page, None)
        self.stats.serviced += 1
        stall = self.response_cycles if coalesced else self.round_trip
        self.stats.stall_cycles += stall
        return stall

    def charge_serial(self, count: int) -> int:
        """Charge ``count`` faults delivered one after another; returns
        each one's stall.

        Between deliveries the queue is empty (every delivery retires or
        discards its record), so each of these faults admits without
        coalescing or a full-queue stall and retires at once: the
        closed form of ``count`` :meth:`admit`/:meth:`retire` pairs.
        """
        assert not self._pending, "serial faults need an empty queue"
        stall = self.round_trip
        self.stats.enqueued += count
        self.stats.serviced += count
        self.stats.stall_cycles += count * stall
        return stall

    def discard(self, record: FaultRecord) -> None:
        """Drop a record whose service was refused or raised.

        A refused fault is not in flight any more: leaving it pending
        would let the page's next fault coalesce onto a dead record.
        """
        self._pending.pop(record.page, None)

    def pending(self) -> int:
        """Number of in-flight (unretired) fault records."""
        return len(self._pending)

    def _retire_oldest(self) -> None:
        for page in self._pending:
            del self._pending[page]
            return


class FaultPath:
    """The IOMMU's recoverable-fault plumbing: queue + kernel handler.

    ``handler`` is any object with ``service(va, access) -> str | None``
    (see :class:`repro.kernel.fault.FaultHandler`): the returned string is
    the fault kind serviced, ``None`` means the fault is a true violation.
    :meth:`deliver_batch` also needs its ``service_batch``.
    """

    def __init__(self, queue: FaultQueue, handler, config: str = ""):
        self.queue = queue
        self.handler = handler
        self.config = config

    def deliver(self, va: int, access: str, *,
                index: int = -1) -> tuple[str, int]:
        """Service one guest fault; returns ``(kind, stall cycles)``.

        Enqueues a structured record, invokes the kernel handler, and
        charges the PRI round trip.  Raises
        :class:`~repro.common.errors.AccessViolation` when the handler
        refuses (permission violation, or no backing for the address).
        """
        record = FaultRecord(va=va, access=access, kind="pending",
                             config=self.config, index=index)
        record, admit_stall = self.queue.admit(record)
        coalesced = record.coalesced > 0
        try:
            kind = self.handler.service(va, access)
        except BaseException:
            self.queue.discard(record)
            raise
        if kind is None:
            self.queue.discard(record)
            self.queue.stats.violations += 1
            record.kind = "perm"
            if obs_core.ENABLED:
                obs_core.REGISTRY.counter("fault.violations",
                                          config=self.config).inc()
            raise AccessViolation(record)
        record.kind = kind
        stall = admit_stall + self.queue.retire(record, coalesced=coalesced)
        if obs_core.ENABLED:
            obs_record.record_fault_service(self.config, kind, stall,
                                            va, access)
            if coalesced:
                obs_core.REGISTRY.counter("fault.coalesced",
                                          config=self.config).inc()
        return kind, stall

    def deliver_batch(self, vas: list, accesses: list,
                      served: list) -> int:
        """Service a batch's predicted faults in one handler pass.

        The batch twin of :meth:`deliver` for fault pre-delivery: the
        handler services the sites in order (see
        :meth:`repro.kernel.fault.FaultHandler.service_batch`), appending
        ``(i, kind)`` per serviced site to ``served``, and stops before
        the first site that would escalate; its index is returned and
        the caller delivers that site and the rest one by one.  The
        queue is charged once in closed form
        (:meth:`FaultQueue.charge_serial`) for the sites served — also
        when a service raises mid-pass; that site counts as enqueued,
        as :meth:`deliver` admits before it services.  With
        observability on, each serviced fault is recorded as
        :meth:`deliver` records it.
        """
        try:
            return self.handler.service_batch(vas, accesses, served)
        except BaseException:
            self.queue.stats.enqueued += 1
            raise
        finally:
            stall = self.queue.charge_serial(len(served))
            if obs_core.ENABLED:
                for i, kind in served:
                    obs_record.record_fault_service(
                        self.config, kind, stall, vas[i], accesses[i])

    def escalate(self, va: int, access: str, *, kind: str = "perm",
                 index: int = -1, reason: str = ""):
        """Raise a structured violation for an unserviceable fault."""
        self.queue.stats.violations += 1
        if obs_core.ENABLED:
            obs_core.REGISTRY.counter("fault.violations",
                                      config=self.config).inc()
        record = FaultRecord(va=va, access=access, kind=kind,
                             config=self.config, index=index)
        message = None
        if reason:
            message = (f"access violation: {access!r} access to {va:#x} "
                       f"under {self.config or 'unknown config'}: {reason}")
        raise AccessViolation(record, message)
