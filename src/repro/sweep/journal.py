"""Crash-consistent sweep checkpointing: a fenced, fsynced journal.

A sweep journal lets an interrupted ``run_pairs`` resume without
recomputation, survive a crash at any instant, and shut out a *zombie
writer* (a wedged process from a previous incarnation waking up and
appending to the journal a resumed sweep now owns).

**Append-only records.**  The journal is a :mod:`repro.common.recordlog`
file — one self-validating sealed record per completed task::

    {"gen": 2, "seq": 5, "key": "bfs/FR", "entries": [...], "sha": "..."}

The first record is a header carrying the ``sweep_key`` (everything that
determines the merged result); a journal written for a different sweep
is ignored, never trusted, never appended to and never removed.

**Durability.**  Every append is flushed and ``fsync``’d before
:meth:`append` returns, and the generation file is fsync’d through a
tmp-file + ``os.replace`` + directory-fsync sequence, so a record the
caller saw acknowledged survives a crash at any instant.

**Torn-write recovery.**  A crash mid-append leaves a partial trailing
line.  :meth:`load` keeps the record log's trusted prefix and
*truncates* the file back to it — one recomputed task — instead of
discarding the journal (the ``checkpoint_torn`` fault site
regression-tests this).

**Generation fencing.**  Opening a journal for writing bumps a
generation counter in a ``.gen`` sidecar; every append re-reads it and
raises :class:`StaleWriterError` if another writer has taken over.  A
zombie writer therefore cannot interleave records into — or truncate —
a journal a newer incarnation owns.  Records from a superseded
generation appearing *after* a newer generation's records (a zombie that
raced the fence check) are dropped at load time and counted.

:class:`JournalFold` holds these header and generation rules once, for
both :meth:`SweepJournal.load` and the live reader
:meth:`repro.sweep.stream.SweepWatch.iter_results`.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.common import faults, integrity, recordlog
from repro.common.errors import InjectedFault, ReproError

#: Format tag carried by every record; bumping it invalidates old journals.
JOURNAL_SCHEMA = 1


class StaleWriterError(ReproError):
    """This journal writer has been fenced off by a newer generation, or
    the journal at its path belongs to another sweep."""


def _fsync_dir(path: Path) -> None:
    """Make a rename in ``path`` durable (best effort on odd filesystems)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class JournalFold:
    """The journal's trust rules, folded over a record log's records.

    :meth:`step` returns ``(task key, entries)`` for each record the
    journal vouches for.  The first record must be a ``sweep-journal``
    header of :data:`JOURNAL_SCHEMA` (else ``header`` is ``"invalid"``)
    naming ``sweep_key`` (else ``"foreign"``; ``None`` accepts any).
    Behind an ``"ok"`` header, a record older than a generation already
    seen is a zombie writer's and is dropped (counted in ``fenced``),
    and each task key folds once — a re-journaled key is a recompute of
    the same result.  :meth:`reset` starts the file over after its
    writer truncated it, keeping the keys already folded.
    """

    def __init__(self, sweep_key: str | None):
        self.sweep_key = sweep_key
        self.seen: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.header: str | None = None
        self.high_gen = 0
        self.fenced = 0

    def step(self, record: dict) -> tuple[str, list] | None:
        if self.header is None:
            if record.get("kind") != "sweep-journal" \
                    or record.get("schema") != JOURNAL_SCHEMA:
                self.header = "invalid"
            elif self.sweep_key is not None \
                    and record.get("sweep_key") != self.sweep_key:
                self.header = "foreign"
            else:
                self.header = "ok"
                self.high_gen = record.get("gen", 0) or 0
            return None
        if self.header != "ok":
            return None
        gen = record.get("gen", 0) or 0
        if gen < self.high_gen:
            self.fenced += 1
            return None
        self.high_gen = gen
        key = record.get("key")
        if key is None or key in self.seen:
            return None
        self.seen.add(key)
        return key, record.get("entries")


class SweepJournal:
    """A resumable, crash-consistent journal of completed sweep tasks.

    ``load()`` / ``append()`` / ``complete()`` with append-only fsynced
    records, torn-tail truncation and generation fencing as described
    in the module docstring.  ``torn_records`` and ``fenced_records``
    report what :meth:`load` had to repair; the runner folds them into
    the :class:`~repro.sim.resilience.ResilienceReport`.
    """

    def __init__(self, path: Path, sweep_key: str):
        self.path = Path(path)
        self.sweep_key = sweep_key
        self.generation: int | None = None     # set on first append
        self.torn_records = 0
        self.fenced_records = 0
        self._entries: dict[str, list] = {}
        #: ``"ok"`` (this sweep's header), ``"foreign"`` or ``None`` (none
        #: yet: the next append writes one), as :meth:`load` found it.
        self._header: str | None = None
        self._loaded = False

    @staticmethod
    def pair_key(workload: str, dataset: str) -> str:
        return f"{workload}/{dataset}"

    # -- generation fencing ---------------------------------------------------

    @property
    def gen_path(self) -> Path:
        return self.path.with_name(self.path.name + ".gen")

    def _read_generation(self) -> int:
        try:
            return int(self.gen_path.read_text().strip() or "0")
        except (OSError, ValueError):
            return 0

    def _write_generation(self, generation: int) -> None:
        tmp = integrity.tmp_path(self.gen_path)
        with open(tmp, "w") as handle:
            handle.write(f"{generation}\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.gen_path)
        _fsync_dir(self.path.parent)

    def fence(self) -> int:
        """Claim the journal for writing, fencing off older writers."""
        self.generation = self._read_generation() + 1
        self._write_generation(self.generation)
        return self.generation

    def _check_fence(self) -> None:
        if self.generation is None:
            self.fence()
            return
        current = self._read_generation()
        if current != self.generation:
            raise StaleWriterError(
                f"journal {self.path} is owned by generation {current}; "
                f"this writer (generation {self.generation}) has been "
                f"fenced off — a newer sweep incarnation resumed it")

    # -- read side ------------------------------------------------------------

    def load(self) -> dict[str, list]:
        """Replay the journal, repairing a torn tail and dropping
        zombie-generation records.

        Returns ``{task key: entries}`` for every record
        :class:`JournalFold` vouches for.  A torn or corrupt record and
        everything after it is truncated away (the sweep recomputes
        those tasks); a journal whose header belongs to a different
        sweep is left untouched and ignored; a journal without a valid
        header is quarantined wholesale.
        """
        self._entries = {}
        self.torn_records = 0
        self.fenced_records = 0
        self._header = None
        self._loaded = True
        if not self.path.exists():
            return self._entries
        raw = self.path.read_bytes()
        records, good_bytes = recordlog.scan(raw)
        torn = good_bytes < len(raw)
        fold = JournalFold(self.sweep_key)
        for record in records:
            item = fold.step(record)
            if item is not None:
                self._entries[item[0]] = item[1]
        if fold.header is None:
            if torn:
                # Even the header is unreadable: nothing to salvage.
                integrity.quarantine(self.path)
                self.torn_records += 1
            return self._entries
        if fold.header == "invalid":
            integrity.quarantine(self.path)
            return self._entries
        self._header = fold.header
        if fold.header == "foreign":
            # A different sweep's journal at the same path: not corrupt,
            # merely inapplicable.  Start fresh without destroying it.
            return self._entries
        if torn:
            self.torn_records += 1
            self._truncate(good_bytes)
        self.fenced_records = fold.fenced
        return self._entries

    def _truncate(self, size: int) -> None:
        with open(self.path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    # -- write side -----------------------------------------------------------

    def append(self, key: str, entries) -> None:
        """Durably append one completed task's entries.

        The record is on disk (written, flushed, fsynced) before this
        returns; a crash at any later instant cannot lose it.  Raises
        :class:`StaleWriterError` — without touching the journal or its
        fence — if the journal belongs to another sweep or a newer
        writer has fenced this one off.
        """
        if not self._loaded:
            self.load()
        if self._header == "foreign":
            raise StaleWriterError(
                f"journal {self.path} belongs to another sweep; this "
                f"sweep ({self.sweep_key}) will not append to it")
        self._check_fence()
        payload = recordlog.seal({"gen": self.generation,
                                  "seq": len(self._entries),
                                  "key": key, "entries": entries})
        if self._header is None:
            header = recordlog.seal({"kind": "sweep-journal",
                                     "schema": JOURNAL_SCHEMA,
                                     "gen": self.generation,
                                     "sweep_key": self.sweep_key})
            payload = header + payload
        if faults.should_fire("checkpoint_torn"):
            # Simulate a crash mid-append: persist a prefix of the record
            # and die.  Resume must truncate the torn tail and recompute
            # exactly this task.
            with open(self.path, "ab") as handle:
                handle.write(payload[: max(1, len(payload) * 2 // 3)])
                handle.flush()
                os.fsync(handle.fileno())
            raise InjectedFault("injected torn checkpoint write "
                                f"(key {key!r})")
        with open(self.path, "ab") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        self._header = "ok"
        self._entries[key] = entries

    def complete(self) -> None:
        """Remove the journal (and its generation fence) after a fully
        merged sweep — only when its header names this sweep."""
        if self._header != "ok":
            return
        for path in (self.path, self.gen_path):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
