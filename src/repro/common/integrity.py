"""Artifact integrity: checksummed envelopes, quarantine, tmp reaping.

Every artifact the pipeline persists (metrics JSON, sweep checkpoints,
and — via a sidecar — binary trace-column ``.npy`` files) carries a schema
version and a SHA-256 digest of its payload.  Readers validate both;
anything corrupt, truncated, or written under a different schema raises
:class:`CacheIntegrityError`, and callers respond by *quarantining* the
file (renaming it ``.corrupt``) and recomputing — a bad cache entry
costs one recomputation, never a crash or a silently wrong figure.

Writers go through ``tmp-file + os.replace`` so readers only ever see
whole files; ``.{pid}.tmp`` droppings left by writers that died mid-write
are reaped on startup (pid liveness first, file age as the fallback).
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import os
import re
import time
from pathlib import Path

from repro.common import faults
from repro.common.errors import CacheIntegrityError

#: Version of the JSON envelope / sidecar format itself.
SCHEMA_VERSION = 1

#: Matches the writer-pid tmp naming used across the pipeline
#: (``metrics-<key>.<pid>.<seq>.tmp``, ``streams.npy.<pid>.<seq>.tmp.npy``,
#: ``_lru_<tag>.<pid>.tmp``); the sequence number keeps concurrent
#: writers *within* one process from colliding and is optional.
_TMP_RE = re.compile(r"\.(\d+)(?:\.\d+)?\.tmp(\.[A-Za-z0-9]+)?$")

#: Per-process uniquifier for tmp names (thread-safe by the GIL).
_TMP_SEQ = itertools.count(1)

#: Age (seconds) past which a tmp file is reaped even when its writer pid
#: cannot be shown dead (pid recycled, unparsable name, foreign writer).
STALE_TMP_AGE = 3600.0


def tmp_path(path: Path, suffix: str = "") -> Path:
    """A unique, reapable tmp name for publishing ``path`` atomically.

    ``{name}.{pid}.{seq}.tmp{suffix}``: pid for cross-process liveness
    checks in :func:`reap_stale_tmp`, sequence number so concurrent
    writers in one process (threads, re-entrant sweeps) never collide.
    """
    return path.with_name(
        f"{path.name}.{os.getpid()}.{next(_TMP_SEQ)}.tmp{suffix}")


def payload_digest(payload: dict) -> str:
    """SHA-256 over the canonical JSON form of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def dumps_envelope(payload: dict, kind: str) -> str:
    """Serialize ``payload`` inside a checksummed, versioned envelope."""
    return json.dumps(
        {"schema": SCHEMA_VERSION, "kind": kind,
         "sha256": payload_digest(payload), "payload": payload},
        indent=1)


def loads_envelope(text: str, kind: str) -> dict:
    """Parse and validate an envelope; returns the payload.

    Raises :class:`CacheIntegrityError` on malformed JSON, a missing or
    foreign envelope (including pre-envelope legacy artifacts), a schema
    or kind mismatch, or a digest mismatch.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CacheIntegrityError(f"malformed artifact JSON: {exc}") from exc
    if not isinstance(doc, dict) or "payload" not in doc:
        raise CacheIntegrityError(
            "artifact has no integrity envelope (legacy or foreign format)")
    if doc.get("schema") != SCHEMA_VERSION:
        raise CacheIntegrityError(
            f"artifact schema {doc.get('schema')!r} != {SCHEMA_VERSION}")
    if doc.get("kind") != kind:
        raise CacheIntegrityError(
            f"artifact kind {doc.get('kind')!r} != {kind!r}")
    payload = doc["payload"]
    if doc.get("sha256") != payload_digest(payload):
        raise CacheIntegrityError("artifact checksum mismatch")
    return payload


def write_json_atomic(path: Path, payload: dict, kind: str) -> None:
    """Atomically persist ``payload`` under an integrity envelope.

    The ``cache_corrupt`` fault hook truncates the written bytes, which
    a later :func:`read_json_verified` must catch and quarantine.
    """
    text = dumps_envelope(payload, kind)
    if faults.should_fire("cache_corrupt"):
        text = text[: max(1, len(text) // 2)]
    tmp = tmp_path(path)
    tmp.write_text(text)
    os.replace(tmp, path)


def read_json_verified(path: Path, kind: str) -> dict:
    """Read an envelope written by :func:`write_json_atomic`."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise CacheIntegrityError(f"unreadable artifact {path}: {exc}") \
            from exc
    return loads_envelope(text, kind)


# -- binary artifacts: sidecar checksums -------------------------------------

def sidecar_path(path: Path) -> Path:
    """The checksum sidecar for a binary artifact."""
    return path.with_name(path.name + ".sha256")


def file_sha256(path: Path) -> str:
    """SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_sidecar(path: Path, content_of: Path | None = None) -> None:
    """Write ``path``'s sidecar, hashing ``content_of`` (default: itself).

    Passing the not-yet-renamed tmp file as ``content_of`` lets writers
    publish the sidecar *before* the ``os.replace`` that publishes the
    artifact, so readers never observe an artifact without its sidecar.
    The ``cache_corrupt`` fault hook records a wrong digest.
    """
    digest = file_sha256(content_of or path)
    if faults.should_fire("cache_corrupt"):
        digest = digest[::-1]
    sidecar = sidecar_path(path)
    tmp = tmp_path(sidecar)
    tmp.write_text(f"repro-cache-v{SCHEMA_VERSION} sha256:{digest}\n")
    os.replace(tmp, sidecar)


def verify_sidecar(path: Path) -> None:
    """Validate a binary artifact against its sidecar.

    Raises :class:`CacheIntegrityError` when the sidecar is missing
    (legacy artifact), malformed, version-mismatched, or the digest does
    not match the file's bytes.
    """
    sidecar = sidecar_path(path)
    try:
        text = sidecar.read_text()
    except OSError as exc:
        raise CacheIntegrityError(
            f"missing checksum sidecar for {path}") from exc
    match = re.fullmatch(r"repro-cache-v(\d+) sha256:([0-9a-f]{64})\s*",
                         text)
    if match is None:
        raise CacheIntegrityError(f"malformed sidecar {sidecar}")
    if int(match.group(1)) != SCHEMA_VERSION:
        raise CacheIntegrityError(
            f"sidecar schema v{match.group(1)} != v{SCHEMA_VERSION}")
    if match.group(2) != file_sha256(path):
        raise CacheIntegrityError(f"checksum mismatch for {path}")


# -- quarantine and tmp reaping ----------------------------------------------

def quarantine(path: Path) -> Path | None:
    """Move a failed artifact aside as ``<name>.corrupt`` for post-mortems.

    Returns the quarantine path, or ``None`` when the file vanished (a
    concurrent reader already quarantined it — benign).  A numeric
    suffix keeps repeat offenders from overwriting each other.
    """
    target = path.with_name(path.name + ".corrupt")
    serial = 0
    while target.exists():
        serial += 1
        target = path.with_name(f"{path.name}.corrupt.{serial}")
    try:
        os.replace(path, target)
    except FileNotFoundError:
        return None
    return target


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError as exc:
        if exc.errno == errno.ESRCH:
            return False
        return True          # EPERM etc.: exists, owned by someone else
    return True


def reap_stale_tmp(root: Path, *, stale_age: float = STALE_TMP_AGE
                   ) -> list[Path]:
    """Delete tmp files abandoned by dead writers under ``root``.

    A ``.{pid}.tmp`` file is reaped when its writer pid is provably dead,
    or — for unparsable names and possibly-recycled pids — when the file
    is older than ``stale_age`` seconds.  Live writers' files are left
    alone so concurrent runs sharing a cache directory never clobber an
    in-flight write.  The walk recurses so shard subdirectories of the
    sweep cache (``<root>/<xx>/``) are covered too.  Returns the reaped
    paths.
    """
    reaped: list[Path] = []
    if not root.is_dir():
        return reaped
    now = time.time()
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        match = _TMP_RE.search(path.name)
        if match is None:
            continue
        pid = int(match.group(1))
        try:
            old = now - path.stat().st_mtime > stale_age
        except OSError:
            continue                      # vanished under us
        if pid != os.getpid() and (not _pid_alive(pid) or old):
            try:
                path.unlink()
            except OSError:
                continue
            reaped.append(path)
    return reaped
