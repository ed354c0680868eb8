"""Partial sweep results while the sweep is still running.

ROADMAP item 5 asks for a streaming results API so downstream consumers
— figure renderers, dashboards, the fuzz matrix — can act on completed
pairs *during* a multi-minute sweep instead of waiting for the final
merge.  :class:`SweepWatch` is that API.  It owns no state of its own;
it tails the two crash-consistent streams the sweep already writes:

* the **event bus** (:mod:`repro.obs.bus`) for lifecycle transitions —
  ``iter_events()`` yields every validated bus record as it lands
  (flushes append ``metrics`` and ``trace`` records to the same
  stream, so consumers filter by ``kind``);
* the **journal** (:mod:`repro.sweep.journal`) for completed results —
  ``iter_results()`` yields ``(task key, entries)`` as each durable
  journal record appears, folding the record log's tail through the same
  :class:`~repro.sweep.journal.JournalFold` the journal's own ``load()``
  applies, so a watcher and a resume always agree.

Both iterators are pure readers over append-only files, so a consumer
can run in a different process — or on a different machine over a
shared filesystem — with no coordination with the sweep.  A consumer
rendering partial Figure 8 rows is four lines::

    watch = SweepWatch(journal_path=out / "sweep.journal",
                       sweep_key=key)
    for task_key, entries in watch.iter_results():
        workload, dataset = task_key.split("/", 1)
        figure.update_row(workload, dataset, entries)

Polling is bounded (``poll`` seconds per probe, ``timeout``/``stop``
to end the watch), never blocking-forever: the sweep owns completion,
the watcher merely observes it.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.common import recordlog
from repro.obs import bus as obs_bus
from repro.sweep.journal import JournalFold


class SweepWatch:
    """Tail a running sweep's bus and journal for live consumption.

    ``bus_path`` defaults to ``<obs-dir>/bus.ndjson``
    (:func:`repro.obs.bus.bus_path`); ``journal_path`` has no default —
    results can only be watched where the sweep journals.  ``run_id``
    filters bus events to one sweep when several share a stream file;
    ``sweep_key`` enforces the journal-header hygiene the journal's own
    ``load()`` applies (a journal written for a different sweep yields
    nothing rather than mixing results).
    """

    def __init__(self, bus_path: str | os.PathLike | None = None,
                 journal_path: str | os.PathLike | None = None, *,
                 run_id: str | None = None, sweep_key: str | None = None,
                 poll: float = 0.2, sleep=time.sleep,
                 clock=time.monotonic):
        self.bus_path = (Path(bus_path) if bus_path is not None
                         else obs_bus.bus_path())
        self.journal_path = (Path(journal_path)
                             if journal_path is not None else None)
        self.run_id = run_id
        self.sweep_key = sweep_key
        self.poll = poll
        self._sleep = sleep
        self._clock = clock

    # -- events ---------------------------------------------------------------

    def iter_events(self, *, follow: bool = True,
                    timeout: float | None = None, stop=None):
        """Yield validated bus records as the scheduler appends them.

        An unterminated tail and anything after a corrupt line are never
        yielded (see :func:`repro.common.recordlog.tail`); ``run_id``
        keeps only that sweep's events.  With ``follow`` the iterator
        polls until ``stop()`` returns true or ``timeout`` seconds
        elapse; ``follow=False`` drains what exists and returns.
        """
        for record in recordlog.tail(
                self.bus_path, follow=follow, poll=self.poll, stop=stop,
                timeout=timeout, sleep=self._sleep, clock=self._clock):
            if self.run_id is None or record.get("run_id") == self.run_id:
                yield record

    # -- results --------------------------------------------------------------

    def iter_results(self, *, follow: bool = True,
                     timeout: float | None = None, stop=None):
        """Yield ``(task key, entries)`` per durable journal record.

        Exactly the records :meth:`repro.sweep.journal.SweepJournal.load`
        would return, in order, as they land: the record log's trust
        rules (:func:`repro.common.recordlog.tail`) folded through
        :class:`~repro.sweep.journal.JournalFold` (header, schema,
        ``sweep_key`` when one is set, zombie generations, one yield per
        key — also across a writer's torn-tail truncation).

        The iterator ends when the journal disappears after having been
        seen (the sweep merged and called ``complete()``), when
        ``stop()`` returns true, or when ``timeout`` elapses.
        """
        if self.journal_path is None:
            return
        fold = JournalFold(self.sweep_key)
        for record in recordlog.tail(
                self.journal_path, follow=follow, poll=self.poll, stop=stop,
                timeout=timeout, sleep=self._sleep, clock=self._clock,
                on_reset=fold.reset):
            item = fold.step(record)
            if item is not None:
                yield item
