"""Instrumentation primitives: counters, histograms, span timers.

This is the bottom layer of the observability subsystem
(``docs/observability.md``).  Everything here is designed around one hard
constraint: **instrumentation must be counter-only on the simulation
path**.  Enabling observability may never change a simulated cycle — all
recording is read-only over state the simulator already computed — and
with observability disabled the hot loops execute *zero* additional
per-access work: call sites guard on the module-level :data:`ENABLED`
boolean (one attribute load), and the per-access loops in
:mod:`repro.hw.iommu` are not instrumented at all.  Distributions over
per-access behaviour (walk depth, AVC hit rate) are *derived* after each
trace run from aggregates and memo tables the engines already maintain
(:mod:`repro.obs.record`), never sampled per access.

The primitives are lock-free: counter increments and histogram bin
updates are single bytecode-level ``int`` operations, atomic under the
GIL, and every pool worker owns a private registry that the parent merges
after the worker's pair completes (:func:`Registry.merge`), so no
cross-process synchronization exists either.

Histograms use fixed power-of-two bins: bin ``i`` counts observations
``v`` with ``v.bit_length() == i``, i.e. bin 0 holds ``v <= 0``, bin 1
holds ``v == 1``, bin 2 holds ``2 <= v < 4``, bin ``i`` holds
``[2**(i-1), 2**i)``.  Binning is therefore a pure function of the value
— no quantile sketch state — which keeps observation O(1), merging a
vector add, and the exported form stable across runs.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.common import env

#: Master switch: set ``REPRO_OBS=1`` to enable the subsystem.
OBS_ENV_VAR = "REPRO_OBS"

#: Output directory for the bus stream and its exports.
OBS_DIR_ENV_VAR = "REPRO_OBS_DIR"

#: Default output directory (cwd-relative) when enabled without a dir.
DEFAULT_OBS_DIR = "repro-obs"

#: Number of histogram bins: covers values up to ``2**63``.
NUM_BINS = 64


#: Truthiness parse for the obs switches (now the repo-wide one).
_env_truthy = env.truthy_str

#: The hot-path guard.  Call sites read this attribute directly
#: (``if core.ENABLED:``) so the disabled cost is one load + branch.
ENABLED: bool = env.truthy(OBS_ENV_VAR)

_out_dir_override: str | None = None


def enabled() -> bool:
    """Whether observability is currently on."""
    return ENABLED


def configure(enabled: bool | None = None,
              out_dir: str | os.PathLike | None = None) -> None:
    """Programmatic override of the environment wiring (tests, embedders).

    ``configure(enabled=True)`` flips the subsystem on for this process
    only; pool workers read the environment at entry, so sweeps that
    should observe their workers must set ``REPRO_OBS`` instead.
    """
    global ENABLED, _out_dir_override
    if enabled is not None:
        ENABLED = bool(enabled)
    if out_dir is not None:
        _out_dir_override = str(out_dir)


def refresh_from_env() -> None:
    """Re-read ``REPRO_OBS``/``REPRO_OBS_DIR`` (worker entry, tests)."""
    global ENABLED, _out_dir_override
    ENABLED = env.truthy(OBS_ENV_VAR)
    _out_dir_override = None


def out_dir() -> Path:
    """The observability output directory (not created here)."""
    if _out_dir_override is not None:
        return Path(_out_dir_override)
    return Path(env.raw(OBS_DIR_ENV_VAR) or DEFAULT_OBS_DIR)


def label(name: str, **labels) -> str:
    """A registry key ``name|k=v|...`` with sorted label order."""
    if not labels:
        return name
    suffix = "|".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}|{suffix}"


class Counter:
    """A monotonically increasing integer (GIL-atomic increments)."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Fixed power-of-two-binned histogram of non-negative integers.

    Bin ``i`` counts values whose ``bit_length()`` is ``i``: bin 0 is
    ``v <= 0``, bin ``i >= 1`` is ``[2**(i-1), 2**i)``.  Also tracks
    count/total/min/max exactly, so means survive the binning.
    """

    __slots__ = ("bins", "count", "total", "min", "max")

    def __init__(self):
        self.bins = [0] * NUM_BINS
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None

    def observe(self, value: int, n: int = 1) -> None:
        value = int(value)
        self.bins[value.bit_length() if value > 0 else 0] += n
        self.count += n
        self.total += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the power-of-two bins.

        Returns the upper bound of the bin containing the ``q``-th
        ranked observation, clamped to the exact ``min``/``max`` — so
        p0/p100 are exact and interior quantiles are right to within a
        factor of two, which is what a latency *order of magnitude*
        report needs.
        """
        if not self.count:
            return 0.0
        q = min(max(q, 0.0), 1.0)
        rank = q * self.count
        cumulative = 0
        value = float(self.max or 0)
        for i, n in enumerate(self.bins):
            cumulative += n
            if n and cumulative >= rank:
                value = float(1 if i == 0 else (1 << i) - 1)
                break
        if self.max is not None:
            value = min(value, float(self.max))
        if self.min is not None:
            value = max(value, float(self.min))
        return value

    def nonzero_bins(self) -> list[tuple[int, int, int]]:
        """``(lo, hi, count)`` for each populated bin (hi exclusive)."""
        out = []
        for i, n in enumerate(self.bins):
            if n:
                lo = 0 if i == 0 else 1 << (i - 1)
                hi = 1 if i == 0 else 1 << i
                out.append((lo, hi, n))
        return out

    def merge(self, other: "Histogram") -> None:
        for i, n in enumerate(other.bins):
            self.bins[i] += n
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            if self.min is None or bound < self.min:
                self.min = bound
            if self.max is None or bound > self.max:
                self.max = bound

    def to_dict(self) -> dict:
        """JSON form; bins are sparse ``{bin_index: count}``."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "bins": {str(i): n for i, n in enumerate(self.bins) if n},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        hist = cls()
        hist.count = int(payload.get("count", 0))
        hist.total = int(payload.get("total", 0))
        hist.min = payload.get("min")
        hist.max = payload.get("max")
        for i, n in (payload.get("bins") or {}).items():
            hist.bins[int(i)] = int(n)
        return hist


class _NullCounter:
    """Observation sink when the subsystem is disabled."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: int, n: int = 1) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_HISTOGRAM = _NullHistogram()


class Registry:
    """Named counters and histograms for one process.

    Lookup creates on first use.  ``to_dict``/``merge`` round-trip the
    whole registry, which is how pool workers ship their observations
    back to the parent (``sim/runner.py``).
    """

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels) -> Counter:
        key = label(name, **labels)
        counter = self.counters.get(key)
        if counter is None:
            counter = self.counters[key] = Counter()
        return counter

    def histogram(self, name: str, **labels) -> Histogram:
        key = label(name, **labels)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        return hist

    def reset(self) -> None:
        self.counters.clear()
        self.histograms.clear()

    def to_dict(self) -> dict:
        """Deterministic (sorted-key) JSON form of every instrument."""
        return {
            "counters": {k: self.counters[k].value
                         for k in sorted(self.counters)},
            "histograms": {k: self.histograms[k].to_dict()
                           for k in sorted(self.histograms)},
        }

    def merge(self, payload: dict) -> None:
        """Fold a :meth:`to_dict` snapshot (e.g. a worker's) into this."""
        for key, value in (payload.get("counters") or {}).items():
            self.counter(key).inc(int(value))
        for key, hist in (payload.get("histograms") or {}).items():
            self.histogram(key).merge(Histogram.from_dict(hist))


#: The process-wide registry every subsystem reports into.
REGISTRY = Registry()


def counter(name: str, **labels) -> Counter | _NullCounter:
    """The named counter, or a no-op sink when disabled."""
    if not ENABLED:
        return NULL_COUNTER
    return REGISTRY.counter(name, **labels)


def histogram(name: str, **labels) -> Histogram | _NullHistogram:
    """The named histogram, or a no-op sink when disabled."""
    if not ENABLED:
        return NULL_HISTOGRAM
    return REGISTRY.histogram(name, **labels)
