"""Shard-aware content-addressed artifact cache layout.

PR 1's cache dropped every artifact flat into one directory.  At the
10k+ pair scale the sweep service targets (ROADMAP items 1–4 multiply
configs × workloads × tenants × tiers × fuzz seeds), a flat directory
makes every ``readdir`` — tmp reaping, cache inspection, backup tooling
— scan tens of thousands of entries.  :class:`ShardedCache` fans
artifacts into 256 shard directories keyed by the first content-key
byte, git-object style::

    <root>/ab/metrics-ab12....json
    <root>/ab/trace-ab12....mm/
    <root>/sweep-....ckpt.jsonl         # journals stay at the root

Because the key is a content hash, the fan-out is uniform by
construction, and because the shard is *derived from the key*, every
process (parent, pool workers, a resumed sweep) computes the same path
with no coordination.  Sweep journals deliberately stay at the root:
they are few, they are the first thing a resuming human looks for, and
existing tooling discovers them by the ``sweep-`` prefix.
"""

from __future__ import annotations

from pathlib import Path

from repro.common import integrity

#: Artifact kinds that live at the cache root rather than in a shard.
UNSHARDED_KINDS = frozenset({"sweep"})


class ShardedCache:
    """Path authority for one cache root; reaps dead writers' tmp once."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._swept = False
        self.reaped = 0

    def sweep_tmp(self) -> int:
        """Reap stale tmp droppings (recursively) once per instance."""
        if not self._swept:
            self.root.mkdir(parents=True, exist_ok=True)
            self.reaped += len(integrity.reap_stale_tmp(self.root))
            self._swept = True
        return self.reaped

    def path(self, kind: str, key: str, suffix: str) -> Path:
        """The canonical (sharded) location of one artifact; creates the
        shard directory."""
        self.sweep_tmp()
        if kind in UNSHARDED_KINDS:
            return self.root / f"{kind}-{key}{suffix}"
        sharded = self.root / key[:2] / f"{kind}-{key}{suffix}"
        sharded.parent.mkdir(exist_ok=True)
        return sharded
