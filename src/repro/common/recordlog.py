"""The sealed-NDJSON record log behind the sweep journal and the event bus.

One JSON object per line, each carrying a ``sha`` over its own canonical
form (sorted keys, compact separators, sans ``sha``), so every record
self-validates without trusting its neighbours::

    {"gen":2,"key":"bfs/FR","seq":5,"entries":[...],"sha":"..."}

This module is the only code that seals a record, validates one, finds
the trusted prefix of a file or tails a file.  Every reader applies the
same trust rule: only newline-terminated lines are considered (an
unterminated tail is a write in progress or a crash), blank lines are
skipped, and nothing after the first line that fails validation is
trusted.  Repairing a file — truncating back to the trusted prefix or
quarantining it — is left to the writers (:mod:`repro.sweep.journal`,
:mod:`repro.obs.bus`); readers never modify what they read.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _digest(record: dict) -> str:
    return hashlib.sha256(_canonical(record).encode()).hexdigest()[:16]


def seal(record: dict) -> bytes:
    """One canonical, self-validating line (newline-terminated)."""
    record = dict(record)
    record["sha"] = _digest(record)
    return (_canonical(record) + "\n").encode()


def open_record(line: bytes) -> dict | None:
    """Parse and validate one line (sans newline); ``None`` when torn or
    corrupt."""
    try:
        record = json.loads(line.decode())
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    sha = record.pop("sha", None)
    if sha != _digest(record):
        return None
    return record


def scan(data: bytes) -> tuple[list[dict], int]:
    """The trusted prefix of ``data``: its records and its byte length.

    The length covers the records and any blank lines between them.  For
    a whole file, a length short of ``len(data)`` means a torn tail or a
    corrupt line, and a writer truncates back to it before appending.
    """
    records: list[dict] = []
    consumed = 0
    for line in data.split(b"\n")[:-1]:
        if line:
            record = open_record(line)
            if record is None:
                break
            records.append(record)
        consumed += len(line) + 1
    return records, consumed


def read(path: str | os.PathLike) -> list[dict]:
    """Every trusted record currently in the file (none if it is absent)."""
    return list(tail(path, follow=False))


def tail(path: str | os.PathLike, *, follow: bool = True,
         poll: float = 0.05, stop=None, timeout: float | None = None,
         sleep=time.sleep, clock=time.monotonic, on_reset=None):
    """Yield trusted records as they are appended to ``path``.

    ``follow=False`` drains the current contents and returns.  With
    ``follow`` the generator polls every ``poll`` seconds until
    ``stop()`` returns true (checked after each drain), ``timeout``
    seconds elapse, or the file disappears after having been read (a
    journal is removed once its sweep merges).

    Each poll reads on from the end of the trusted prefix, so bytes past
    it — an unterminated tail, or a corrupt line and everything after
    it — are never yielded but are read again on the next poll, when a
    writer may have finished or repaired them.  A file that shrinks
    below the trusted prefix was rewritten: the tail restarts from byte
    0 and calls ``on_reset()`` first, so a caller folding records can
    drop its state.
    """
    path = Path(path)
    offset = 0
    seen = False
    deadline = clock() + timeout if timeout is not None else None
    while True:
        chunk = b""
        try:
            with open(path, "rb") as handle:
                seen = True
                if os.fstat(handle.fileno()).st_size < offset:
                    offset = 0
                    if on_reset is not None:
                        on_reset()
                handle.seek(offset)
                chunk = handle.read()
        except FileNotFoundError:
            if seen:
                return
        except OSError:
            pass
        records, consumed = scan(chunk)
        offset += consumed
        yield from records
        if not follow or (stop is not None and stop()):
            return
        if deadline is not None and clock() >= deadline:
            return
        sleep(poll)
