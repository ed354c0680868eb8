"""Scheduler negatives: the sanctioned pool owner with bounded waits.

Worker-process creation is legal here (``config.POOL_OWNER``), and
every blocking wait carries a timeout or polls a ``*_nowait`` variant.
"""

import multiprocessing
import queue


def supervise(task):
    ctx = multiprocessing.get_context("fork")
    result_q = ctx.Queue()
    worker = ctx.Process(target=_noop, args=(result_q, task))
    worker.start()
    try:
        payload = result_q.get(timeout=5.0)
    except queue.Empty:
        payload = None
    try:
        extra = result_q.get_nowait()
    except queue.Empty:
        extra = None
    worker.join(timeout=5.0)
    return payload, extra


def _noop(result_q, task):
    result_q.put(task)


class _NarratedScheduler:
    """OBS002 negative: every counter bump also emits onto the bus."""

    def __init__(self, report, bus):
        self.report = report
        self.bus = bus

    def _retry(self, key, slot):
        self.report.retries += 1
        self.bus.emit("retried", key=key, slot=slot)
        return key

