"""Scheduler positives: state transitions the event bus never hears.

OBS002 requires any function bumping a ``...report.<counter>`` to also
emit a bus event; ``_steal_silently`` bumps two counters and narrates
neither.
"""


class _SilentScheduler:
    def __init__(self, report, bus):
        self.report = report
        self.bus = bus

    def _emit(self, kind, **fields):
        self.bus.emit(kind, **fields)

    def _steal_silently(self, key, slot):
        self.report.steals += 1        # dvmlint-expect: OBS002
        self.report.retries += 1       # dvmlint-expect: OBS002
        return key, slot

    def _steal_narrated(self, key, slot):
        self.report.steals += 1
        self._emit("stolen", key=key, slot=slot)
        return key
