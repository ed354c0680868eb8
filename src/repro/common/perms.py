"""Two-bit permission encoding used throughout the reproduction.

The paper (Section 4.1) uses the encoding::

    00: No Permission    01: Read-Only
    10: Read-Write       11: Read-Execute

Permission Entries pack sixteen of these 2-bit fields into one 8-byte
page-table entry.  Access kinds are ``"r"`` (load), ``"w"`` (store) and
``"x"`` (instruction fetch).
"""

from __future__ import annotations

import enum


class Perm(enum.IntEnum):
    """Region permission, in the paper's 2-bit encoding."""

    NONE = 0b00
    READ_ONLY = 0b01
    READ_WRITE = 0b10
    READ_EXECUTE = 0b11


#: Access kinds accepted by :func:`allows`.
ACCESS_KINDS = ("r", "w", "x")

_ALLOWED = {
    Perm.NONE: frozenset(),
    Perm.READ_ONLY: frozenset("r"),
    Perm.READ_WRITE: frozenset("rw"),
    Perm.READ_EXECUTE: frozenset("rx"),
}


def allows(perm: Perm, access: str) -> bool:
    """Return whether ``perm`` authorises an access of kind ``access``."""
    if access not in ACCESS_KINDS:
        raise ValueError(f"unknown access kind: {access!r}")
    allowed = _ALLOWED.get(perm)    # a Perm key matches its int value
    if allowed is None:
        allowed = _ALLOWED[Perm(perm)]   # ValueError on a bad encoding
    return access in allowed


def pack_fields(fields: list[Perm]) -> int:
    """Pack sixteen 2-bit permission fields into a single integer.

    Field 0 occupies the least-significant two bits, matching Figure 6's
    P15..P0 layout read from the most-significant end.
    """
    if len(fields) != 16:
        raise ValueError(f"a Permission Entry has 16 fields, got {len(fields)}")
    packed = 0
    for i, perm in enumerate(fields):
        packed |= (int(perm) & 0b11) << (2 * i)
    return packed


def unpack_fields(packed: int) -> list[Perm]:
    """Inverse of :func:`pack_fields`."""
    return [Perm((packed >> (2 * i)) & 0b11) for i in range(16)]


def from_prot(read: bool, write: bool, execute: bool) -> Perm:
    """Map an mmap-style protection triple onto the 2-bit encoding.

    x86-64 leaves no encoding for write+execute here, matching the paper's
    four-state field; W^X is enforced by construction.
    """
    if write and execute:
        raise ValueError("write+execute mappings are not representable")
    if execute:
        return Perm.READ_EXECUTE if read else Perm.NONE
    if write:
        return Perm.READ_WRITE
    if read:
        return Perm.READ_ONLY
    return Perm.NONE
