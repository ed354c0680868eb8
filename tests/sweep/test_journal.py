"""SweepJournal crash-consistency semantics: torn tails, fencing, zombies.

Everything here is parent-process-only — no workers — so each property
(durable truncation, generation fencing, zombie-record rejection) is
tested in isolation from scheduling.
"""

from __future__ import annotations

import pytest

from repro.common import faults
from repro.common.errors import InjectedFault
from repro.common.recordlog import seal as _seal
from repro.sweep.journal import StaleWriterError, SweepJournal

KEY = "probe-sweep-test"


def entries_for(seed: int) -> list:
    return [["probe", {"seed": seed, "value": seed * 7 + 1}]]


def fill(path, count: int = 3) -> SweepJournal:
    journal = SweepJournal(path, KEY)
    for seed in range(count):
        journal.append(f"probe/{seed}", entries_for(seed))
    return journal


class TestRoundTrip:
    def test_append_then_load(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        fill(path, 3)
        loaded = SweepJournal(path, KEY).load()
        assert loaded == {f"probe/{s}": entries_for(s) for s in range(3)}

    def test_missing_file_loads_empty(self, tmp_path):
        journal = SweepJournal(tmp_path / "absent.jsonl", KEY)
        assert journal.load() == {}
        assert journal.torn_records == 0

    def test_wrong_sweep_key_ignored_and_untouched(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        fill(path, 2)
        before = path.read_bytes()
        other = SweepJournal(path, "some-other-sweep")
        assert other.load() == {}
        assert other.torn_records == 0
        assert path.read_bytes() == before

    def test_complete_removes_journal_and_fence(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = fill(path, 2)
        assert path.exists() and journal.gen_path.exists()
        journal.complete()
        assert not path.exists() and not journal.gen_path.exists()
        journal.complete()      # idempotent


class TestTornWrites:
    def test_torn_tail_truncated_durably(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        fill(path, 3)
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])      # tear into the last record
        first = SweepJournal(path, KEY)
        loaded = first.load()
        assert loaded == {f"probe/{s}": entries_for(s) for s in range(2)}
        assert first.torn_records == 1
        # The truncation is persisted: a second load sees a clean file.
        second = SweepJournal(path, KEY)
        assert second.load() == loaded
        assert second.torn_records == 0

    def test_corrupt_middle_record_drops_the_rest(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        fill(path, 3)
        lines = path.read_bytes().split(b"\n")
        # Flip bytes inside the second *data* record (line index 2:
        # header, rec0, rec1, rec2).  Everything after the first bad
        # record is untrustworthy and must be dropped, not skipped over.
        lines[2] = lines[2][:-8] + b"XXXXXXXX"
        path.write_bytes(b"\n".join(lines))
        journal = SweepJournal(path, KEY)
        assert journal.load() == {"probe/0": entries_for(0)}
        assert journal.torn_records == 1

    def test_unreadable_header_quarantines(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        fill(path, 1)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw.split(b"\n")[0]) // 2])
        journal = SweepJournal(path, KEY)
        assert journal.load() == {}
        assert journal.torn_records == 1
        assert not path.exists()
        assert any(".corrupt" in p.name for p in tmp_path.iterdir())

    def test_checkpoint_torn_fault_round_trip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = fill(path, 1)
        faults.configure("checkpoint_torn:1.0:1", seed=0)
        with pytest.raises(InjectedFault):
            journal.append("probe/1", entries_for(1))
        faults.reset()
        resumed = SweepJournal(path, KEY)
        assert resumed.load() == {"probe/0": entries_for(0)}
        assert resumed.torn_records == 1


class TestGenerationFencing:
    def test_fence_bumps_generation(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path, KEY)
        first = journal.fence()
        second = journal.fence()
        assert second == first + 1
        assert journal.gen_path.read_text().strip() == str(second)

    def test_stale_writer_fenced_off(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        older = SweepJournal(path, KEY)
        older.append("probe/0", entries_for(0))
        newer = SweepJournal(path, KEY)
        newer.load()
        newer.fence()
        newer.append("probe/1", entries_for(1))
        with pytest.raises(StaleWriterError):
            older.append("probe/2", entries_for(2))
        loaded = SweepJournal(path, KEY).load()
        assert set(loaded) == {"probe/0", "probe/1"}

    def test_zombie_generation_record_dropped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        older = SweepJournal(path, KEY)
        older.append("probe/0", entries_for(0))
        newer = SweepJournal(path, KEY)
        newer.load()
        newer.fence()
        newer.append("probe/1", entries_for(1))
        # A zombie writer that raced its final append past the fence
        # check: a well-sealed record from the superseded generation
        # landing *after* the newer generation's records.
        zombie = _seal({"gen": older.generation, "seq": 9,
                        "key": "probe/9", "entries": entries_for(9)})
        with open(path, "ab") as handle:
            handle.write(zombie)
        resumed = SweepJournal(path, KEY)
        loaded = resumed.load()
        assert set(loaded) == {"probe/0", "probe/1"}
        assert resumed.fenced_records == 1


class TestForeignJournal:
    """A journal at a reused path that belongs to another sweep: never
    appended to, never adopted, never removed."""

    def test_resume_gets_only_own_entries(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        owner = fill(path, 2)
        before = path.read_bytes()
        gen_before = owner.gen_path.read_bytes()
        other = SweepJournal(path, "some-other-sweep")
        assert other.load() == {}
        with pytest.raises(StaleWriterError):
            other.append("probe/9", entries_for(9))
        assert path.read_bytes() == before
        assert owner.gen_path.read_bytes() == gen_before
        # Also without a prior load(): the first append reads the header.
        with pytest.raises(StaleWriterError):
            SweepJournal(path, "some-other-sweep").append(
                "probe/9", entries_for(9))
        assert path.read_bytes() == before
        resumed = SweepJournal(path, KEY).load()
        assert resumed == {f"probe/{s}": entries_for(s) for s in range(2)}

    def test_survives_other_sweeps_complete(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        owner = fill(path, 2)
        other = SweepJournal(path, "some-other-sweep")
        other.load()
        other.complete()
        assert path.exists() and owner.gen_path.exists()
        resumed = SweepJournal(path, KEY).load()
        assert resumed == {f"probe/{s}": entries_for(s) for s in range(2)}
