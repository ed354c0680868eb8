"""Fault queue and fault path unit behaviour (repro.hw.fault_queue)."""

import pickle

import pytest

from repro.common.errors import AccessViolation, PageFault, ProtectionFault
from repro.hw.fault_queue import (DEFAULT_REQUEST_CYCLES,
                                  DEFAULT_RESPONSE_CYCLES,
                                  DEFAULT_SERVICE_CYCLES, FaultPath,
                                  FaultQueue, FaultRecord)

ROUND_TRIP = (DEFAULT_REQUEST_CYCLES + DEFAULT_SERVICE_CYCLES
              + DEFAULT_RESPONSE_CYCLES)


def record(va=0x1000, access="r", kind="pending"):
    return FaultRecord(va=va, access=access, kind=kind)


class StubHandler:
    """Scripted kernel handler: maps va -> kind (None = violation)."""

    def __init__(self, outcomes):
        self.outcomes = outcomes
        self.calls = []

    def service(self, va, access):
        self.calls.append((va, access))
        return self.outcomes.get(va)


class TestFaultRecord:
    def test_page_number(self):
        assert record(va=0x3042).page == 0x3
        assert record(va=0x7f0001234).page == 0x7f0001234 >> 12


class TestFaultQueue:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultQueue(capacity=0)

    def test_primary_fault_pays_full_round_trip(self):
        q = FaultQueue()
        rec, admit_stall = q.admit(record())
        assert admit_stall == 0
        assert q.pending() == 1
        stall = q.retire(rec)
        assert stall == ROUND_TRIP
        assert q.pending() == 0
        assert q.stats.enqueued == 1
        assert q.stats.serviced == 1
        assert q.stats.stall_cycles == ROUND_TRIP

    def test_same_page_coalesces_onto_pending_record(self):
        q = FaultQueue()
        first, _ = q.admit(record(va=0x5000))
        second, admit_stall = q.admit(record(va=0x5FFF))  # same 4K page
        assert second is first
        assert admit_stall == 0
        assert first.coalesced == 1
        assert q.stats.coalesced == 1
        assert q.stats.enqueued == 1
        assert q.pending() == 1

    def test_coalesced_retire_pays_response_leg_only(self):
        q = FaultQueue()
        rec, _ = q.admit(record())
        q.admit(record())
        assert q.retire(rec, coalesced=True) == DEFAULT_RESPONSE_CYCLES

    def test_distinct_pages_do_not_coalesce(self):
        q = FaultQueue()
        q.admit(record(va=0x1000))
        q.admit(record(va=0x2000))
        assert q.pending() == 2
        assert q.stats.coalesced == 0

    def test_full_queue_stalls_one_service_drain(self):
        q = FaultQueue(capacity=2)
        q.admit(record(va=0x1000))
        q.admit(record(va=0x2000))
        _, stall = q.admit(record(va=0x3000))
        assert stall == q.service_cycles
        assert q.stats.queue_full_stalls == 1
        assert q.pending() == 2  # oldest drained to make room


class TestFaultPath:
    def path(self, outcomes, **queue_kw):
        handler = StubHandler(outcomes)
        return FaultPath(FaultQueue(**queue_kw), handler,
                         config="dvm_pe"), handler

    def test_serviced_fault_returns_kind_and_stall(self):
        path, handler = self.path({0x1000: "major"})
        kind, stall = path.deliver(0x1000, "w")
        assert kind == "major"
        assert stall == ROUND_TRIP
        assert handler.calls == [(0x1000, "w")]
        assert path.queue.stats.serviced == 1

    def test_refused_fault_escalates_to_access_violation(self):
        path, _ = self.path({})  # handler returns None for everything
        with pytest.raises(AccessViolation) as exc_info:
            path.deliver(0xBAD000, "w")
        exc = exc_info.value
        assert exc.record.va == 0xBAD000
        assert exc.record.kind == "perm"
        assert exc.record.config == "dvm_pe"
        assert path.queue.stats.violations == 1

    def test_refused_fault_leaves_the_queue_empty(self):
        # A refused delivery is not in flight: the page's next fault
        # must pay the full round trip, not coalesce onto the dead record.
        outcomes = {0x1000: None}
        path, _ = self.path(outcomes)
        with pytest.raises(AccessViolation):
            path.deliver(0x1000, "w")
        assert path.queue.pending() == 0
        outcomes[0x1000] = "major"
        kind, stall = path.deliver(0x1000, "w")
        assert (kind, stall) == ("major", ROUND_TRIP)
        assert path.queue.stats.coalesced == 0
        assert path.queue.pending() == 0

    def test_raising_handler_leaves_the_queue_empty(self):
        class Exploding:
            def service(self, va, access):
                raise MemoryError("no frame")

        path = FaultPath(FaultQueue(), Exploding(), config="dvm_pe")
        with pytest.raises(MemoryError):
            path.deliver(0x1000, "r")
        assert path.queue.pending() == 0
        assert path.queue.stats.enqueued == 1
        assert path.queue.stats.serviced == 0

    def test_escalate_carries_reason_and_config(self):
        path, _ = self.path({})
        with pytest.raises(AccessViolation, match="injected"):
            path.escalate(0x2000, "r", kind="injected",
                          reason="injected permission violation")

    def test_access_violation_is_a_protection_fault(self):
        # Legacy `except ProtectionFault` handlers keep catching guest
        # violations raised through the recoverable path.
        path, _ = self.path({})
        with pytest.raises(ProtectionFault):
            path.deliver(0x3000, "r")

    def test_violation_survives_pickling(self):
        # Quarantine relies on AccessViolation crossing the process-pool
        # boundary intact (structured record included).
        path, _ = self.path({})
        try:
            path.deliver(0x4000, "w", index=17)
        except AccessViolation as exc:
            clone = pickle.loads(pickle.dumps(exc))
            assert isinstance(clone, AccessViolation)
            assert clone.record.va == 0x4000
            assert clone.record.index == 17
            assert str(clone) == str(exc)
        else:
            pytest.fail("expected AccessViolation")

    def test_legacy_faults_survive_pickling(self):
        for exc in (PageFault(0x1000), ProtectionFault(0x2000, "w")):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert clone.va == exc.va
            assert str(clone) == str(exc)
