"""Small alignment and power-of-two helpers shared across the library."""

from __future__ import annotations


def is_power_of_two(n: int) -> bool:
    """Return whether ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def round_up_pow2(n: int) -> int:
    """Smallest power of two >= ``n`` (``n`` must be positive)."""
    if n <= 0:
        raise ValueError(f"expected a positive size, got {n}")
    return 1 << (n - 1).bit_length()


# The alignment helpers inline the power-of-two test: they run on every
# page-table call, so each check is one Python call.

def align_down(value: int, alignment: int) -> int:
    """Largest multiple of ``alignment`` <= ``value``."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return value & ~(alignment - 1)


def align_up(value: int, alignment: int) -> int:
    """Smallest multiple of ``alignment`` >= ``value``."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)


def is_aligned(value: int, alignment: int) -> bool:
    """Return whether ``value`` is a multiple of ``alignment``."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return value & (alignment - 1) == 0


def size_to_order(size: int, unit: int) -> int:
    """Buddy order for an allocation of ``size`` bytes in ``unit``-byte blocks.

    The order is the log2 of the number of units after rounding ``size`` up
    to a whole power-of-two multiple of ``unit`` — the eager-paging rounding
    the paper adopts from Karakostas et al. (Section 4.3.1).
    """
    if size <= 0:
        raise ValueError(f"expected a positive size, got {size}")
    units = (size + unit - 1) // unit
    return max(0, (units - 1).bit_length())


def human_bytes(n: int) -> str:
    """Render a byte count in the most natural binary unit (for reports)."""
    value = float(n)
    for suffix in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024 or suffix == "TB":
            if suffix == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {suffix}"
        value /= 1024
    raise AssertionError("unreachable")
