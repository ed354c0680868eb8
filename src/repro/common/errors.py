"""Exception hierarchy for the reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class OutOfMemoryError(ReproError):
    """The physical allocator could not satisfy a request."""


class AddressSpaceError(ReproError):
    """A virtual-address-space operation failed (overlap, exhaustion...)."""


class MappingError(ReproError):
    """A page-table mapping operation was invalid (misalignment, remap...)."""


class ProtectionFault(ReproError):
    """An access was attempted without sufficient permissions.

    Mirrors the exception the IOMMU raises on the host CPU when DAV finds
    insufficient permissions (paper Section 4.1.1).
    """

    def __init__(self, va: int, access: str, message: str | None = None):
        self.va = va
        self.access = access
        super().__init__(
            message or f"protection fault: {access!r} access to {va:#x} denied"
        )

    def __reduce__(self):
        # Exceptions with non-message __init__ args need an explicit recipe
        # so they survive the process-pool pickle round trip.
        return (type(self), (self.va, self.access, str(self)))


class PageFault(ReproError):
    """An access touched an unmapped virtual address."""

    def __init__(self, va: int, message: str | None = None):
        self.va = va
        super().__init__(message or f"page fault at {va:#x}")

    def __reduce__(self):
        return (type(self), (self.va, str(self)))


class AccessViolation(ProtectionFault):
    """A guest access the kernel fault handler refused to service.

    The recoverable-fault path (``repro.hw.fault_queue`` +
    ``repro.kernel.fault``) raises this instead of a naked
    :class:`PageFault`/:class:`ProtectionFault`: it carries the full
    structured :class:`~repro.hw.fault_queue.FaultRecord` (va, access,
    fault kind, configuration, trace index) so sweep-level containment
    can quarantine the faulting pair with a useful report.
    Subclasses :class:`ProtectionFault` so pre-fault-path handlers keep
    working.
    """

    def __init__(self, record, message: str | None = None):
        self.record = record
        super().__init__(
            record.va, record.access,
            message or (f"access violation: {record.access!r} access to "
                        f"{record.va:#x} ({record.kind}) under "
                        f"{record.config or 'unknown config'!s} refused"))

    def __reduce__(self):
        return (AccessViolation, (self.record, str(self)))


class ConfigError(ReproError):
    """An experiment or hardware configuration was inconsistent."""


class TransientError(ReproError):
    """A failure that is expected to succeed on retry.

    The resilience layer (``repro.sim.resilience``) retries these with
    exponential backoff; anything else propagates immediately so
    programming errors and genuinely fatal conditions are never masked
    by a retry loop.
    """


class WorkerCrashError(TransientError):
    """A process-pool worker died or raised while running a pair."""


class PairTimeoutError(TransientError):
    """A (workload, dataset) pair exceeded its wall-clock budget."""


class CacheIntegrityError(ReproError):
    """A persisted artifact failed validation (corrupt, truncated, or
    written under a different schema version).

    Not transient in the retry sense: the remedy is quarantining the
    artifact and recomputing it, not re-reading the same bytes.
    """


class InjectedFault(TransientError):
    """A failure raised by the deterministic fault injector.

    Only ``repro.common.faults`` raises this; production code paths
    treat it like any other transient failure.
    """


class InjectedOutOfMemoryError(OutOfMemoryError, TransientError):
    """An injected allocator OOM (chaos testing).

    Subclasses :class:`OutOfMemoryError` so the identity-mapping code
    falls back to demand paging exactly as it would on real memory
    pressure (paper Section 4.3), and :class:`TransientError` so that if
    it escapes those fallbacks (e.g. fired during demand paging itself)
    the experiment harness retries the computation instead of dying.
    """
