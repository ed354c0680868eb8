"""The journal's and the bus's readers agree with their writers.

Each fixture is a byte-level record log.  A drained
:meth:`SweepWatch.iter_results` must yield exactly what
:meth:`SweepJournal.load` returns (in order), and
:func:`repro.obs.bus.read_events` must return exactly the records the
next bus writer keeps when it opens the file.
"""

from __future__ import annotations

import shutil

import pytest

from repro.common import recordlog
from repro.obs import bus
from repro.sweep.journal import JOURNAL_SCHEMA, SweepJournal
from repro.sweep.stream import SweepWatch

KEY = "agree-sweep"


def header(gen=1, schema=JOURNAL_SCHEMA, sweep_key=KEY) -> bytes:
    return recordlog.seal({"kind": "sweep-journal", "schema": schema,
                           "gen": gen, "sweep_key": sweep_key})


def rec(seed: int, gen: int = 1) -> bytes:
    return recordlog.seal({"gen": gen, "seq": seed, "key": f"probe/{seed}",
                           "entries": [["probe", {"seed": seed}]]})


def corrupt(line: bytes) -> bytes:
    return line[:-9] + b"XXXXXXXX\n"


#: fixture name -> (journal bytes, writer's sweep key, task keys that
#: writer's load() vouches for)
FIXTURES = {
    "torn-tail": (header() + rec(0) + rec(1) + rec(2)[:-7], KEY,
                  ["probe/0", "probe/1"]),
    "corrupt-middle": (header() + rec(0) + corrupt(rec(1)) + rec(2), KEY,
                       ["probe/0"]),
    "headerless": (rec(0) + rec(1), KEY, []),
    "wrong-schema": (header(schema=JOURNAL_SCHEMA + 1) + rec(0), KEY, []),
    "foreign-sweep-key": (header(sweep_key="other-sweep") + rec(0),
                          "other-sweep", ["probe/0"]),
    "zombie-generation": (header() + rec(0) + rec(1, gen=2) + rec(2)
                          + rec(3, gen=2), KEY,
                          ["probe/0", "probe/1", "probe/3"]),
    "stray-blank-line": (header() + rec(0) + b"\n" + rec(1), KEY,
                         ["probe/0", "probe/1"]),
}


@pytest.fixture(params=sorted(FIXTURES))
def fixture(request, tmp_path):
    raw, writer_key, expected = FIXTURES[request.param]
    original = tmp_path / "original.jsonl"
    original.write_bytes(raw)
    return original, writer_key, expected


def copy(path, name):
    target = path.with_name(name)
    shutil.copyfile(path, target)
    return target


@pytest.mark.parametrize("watch_key", [KEY, None],
                         ids=["keyed-watch", "any-key-watch"])
def test_watch_yields_what_load_returns(fixture, watch_key):
    original, writer_key, expected = fixture
    # A watch without a sweep key accepts whichever sweep wrote the
    # journal, so it must agree with that sweep's own load().
    load_key = watch_key or writer_key
    watch = SweepWatch(journal_path=copy(original, "watched.jsonl"),
                       sweep_key=watch_key)
    watched = list(watch.iter_results(follow=False))
    loaded = list(SweepJournal(copy(original, "loaded.jsonl"),
                               load_key).load().items())
    assert watched == loaded
    assert [key for key, _ in loaded] \
        == (expected if load_key == writer_key else [])


def test_bus_reader_matches_next_writers_prefix(fixture):
    original, _writer_key, _expected = fixture
    read = bus.read_events(copy(original, "read.ndjson"))
    reopened = copy(original, "reopened.ndjson")
    with bus.EventBus(reopened, "next") as writer:
        writer.emit("sweep-begin")
    kept = recordlog.read(reopened)
    assert kept[-1]["run_id"] == "next"
    assert read == kept[:-1]


def test_tail_picks_up_the_next_writers_repair(tmp_path):
    """A live tail parked at a torn tail yields what the next writer
    keeps and appends, even once the file outgrows its torn size."""
    path = tmp_path / "bus.ndjson"
    with bus.EventBus(path, "dead") as writer:
        writer.emit("sweep-begin")
    with open(path, "ab") as handle:
        handle.write(recordlog.seal({"kind": "torn"})[:-5])
    polls = {"n": 0}

    def next_writer(_dt):
        polls["n"] += 1
        if polls["n"] == 1:
            with bus.EventBus(path, "next") as writer:
                for i in range(5):
                    writer.emit("tick", i=i)

    tailed = list(recordlog.tail(path, sleep=next_writer,
                                 stop=lambda: polls["n"] >= 2))
    assert tailed == bus.read_events(path)
    assert [r["kind"] for r in tailed] == ["sweep-begin"] + ["tick"] * 5
