"""IOMMU fault path: the PRI-style recoverable guest-fault path.

The paper's central motivation (Sections 2 and 4.3) is that accelerators
cannot tolerate page faults: servicing a fault from an IO device — an ATS
page request travelling to the root complex, a host interrupt, the OS
handler, and the response message — costs microseconds to milliseconds,
versus nanoseconds for a TLB miss.  DVM's eager identity mapping exists
precisely to make this path cold.  This module *models* the path instead
of crashing the simulation, so the cost DVM avoids becomes measurable:

* :class:`FaultRecord` — one structured guest fault (va, access type,
  fault kind, configuration, trace index).
* :data:`ROUND_TRIP_CYCLES` — every serviced fault's engine stall:
  ``request + service + response`` cycles.  Delivery is serial and each
  fault is serviced before the next one is raised, so no fault waits
  behind or shares another's page request.
* :class:`FaultPath` — glue to the kernel-side handler
  (:mod:`repro.kernel.fault`): delivers a fault, counts it, and
  escalates unserviceable faults to a structured
  :class:`~repro.common.errors.AccessViolation`.
  :meth:`FaultPath.deliver_batch` is the fast engine's batch delivery:
  a batch's predicted faults in one handler pass, stopping before the
  first fault that would escalate.  Both count through one charge step.

The seven IOMMU configurations call :meth:`FaultPath.deliver` from their
fault sites instead of raising mid-stream; fault-free traces never touch
this module, so the default timing path is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import AccessViolation
from repro.obs import core as obs_core
from repro.obs import record as obs_record

#: PRI message legs, in accelerator cycles.  At ~1 GHz the round trip
#: (request + service + response) is ~21 us — the low end of the paper's
#: "microseconds to milliseconds" fault-service cost.
DEFAULT_REQUEST_CYCLES = 600
DEFAULT_SERVICE_CYCLES = 20_000
DEFAULT_RESPONSE_CYCLES = 600
ROUND_TRIP_CYCLES = (DEFAULT_REQUEST_CYCLES + DEFAULT_SERVICE_CYCLES
                     + DEFAULT_RESPONSE_CYCLES)


@dataclass
class FaultRecord:
    """One structured guest fault as seen by the IOMMU."""

    va: int                 # faulting virtual address
    access: str             # "r" | "w"
    kind: str               # "major" | "swap" | "perm" | "unmapped" |
    #                         "spurious" | "injected"
    config: str = ""        # MMU configuration name
    index: int = -1         # trace position (-1 when unknown)


@dataclass
class FaultPathStats:
    """Counters for one fault path's lifetime."""

    delivered: int = 0       # faults handed to the handler
    serviced: int = 0        # faults the handler serviced
    violations: int = 0      # faults escalated as access violations


class FaultPath:
    """The IOMMU's recoverable-fault plumbing in front of the kernel handler.

    ``handler`` is any object with ``service(va, access) -> str | None``
    (see :class:`repro.kernel.fault.FaultHandler`): the returned string is
    the fault kind serviced, ``None`` means the fault is a true violation.
    :meth:`deliver_batch` also needs its ``service_batch``.
    """

    def __init__(self, handler, config: str = ""):
        self.handler = handler
        self.config = config
        self.stats = FaultPathStats()

    def deliver(self, va: int, access: str) -> str:
        """Service one guest fault; returns the kind serviced.

        Invokes the kernel handler; the fault's stall is
        :data:`ROUND_TRIP_CYCLES`.  Raises
        :class:`~repro.common.errors.AccessViolation` when the handler
        refuses (permission violation, or no backing for the address).
        """
        self.stats.delivered += 1
        kind = self.handler.service(va, access)
        if kind is None:
            self.escalate(va, access)
        self._charge(1, ((kind, va, access),))
        return kind

    def deliver_batch(self, vas: list, accesses: list,
                      served: list) -> int:
        """Service a batch's predicted faults in one handler pass.

        The batch twin of :meth:`deliver` for fault pre-delivery: the
        handler services the sites in order (see
        :meth:`repro.kernel.fault.FaultHandler.service_batch`), appending
        ``(i, kind)`` per serviced site to ``served``, and stops before
        the first site that would escalate; its index is returned and
        the caller delivers that site and the rest one by one.  The
        sites served are charged as :meth:`deliver` charges them — also
        when a service raises mid-pass; that site counts as delivered,
        as :meth:`deliver` counts a raising service.
        """
        try:
            return self.handler.service_batch(vas, accesses, served)
        except BaseException:
            self.stats.delivered += 1
            raise
        finally:
            self.stats.delivered += len(served)
            self._charge(len(served), ((kind, vas[i], accesses[i])
                                       for i, kind in served))

    def _charge(self, count: int, sites) -> None:
        """Count ``count`` serviced faults; with observability on, record
        each of ``sites`` (``(kind, va, access)``)."""
        self.stats.serviced += count
        if obs_core.ENABLED:
            for kind, va, access in sites:
                obs_record.record_fault_service(self.config, kind, va, access)

    def escalate(self, va: int, access: str, *, kind: str = "perm",
                 index: int = -1, reason: str = ""):
        """Raise a structured violation for an unserviceable fault."""
        self.stats.violations += 1
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
