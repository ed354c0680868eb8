"""Central environment access for every ``REPRO_*`` runtime knob.

All environment reads in the library go through this module (enforced
by dvmlint rule ENV001): one choke point means the knob inventory stays
enumerable and cross-checkable against ``docs/configuration.md`` (rules
ENV002/ENV003), truthiness parses one way everywhere, and pool workers
re-reading their configuration at entry hit the same code path the
parent used.

The helpers deliberately return raw strings by default — call sites own
their parse-and-validate behaviour — with small typed conveniences for
the common truthy/float cases and the one shared ``REPRO_WORKERS``
parse.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator, Mapping

from repro.common.errors import ConfigError

__all__ = ["raw", "truthy", "truthy_str", "floating", "workers",
           "override"]

#: Worker processes for sweeps, figures and the fuzz oracle.
WORKERS_ENV_VAR = "REPRO_WORKERS"


def raw(name: str, default: str | None = None) -> str | None:
    """The variable's raw string value, or ``default`` when unset."""
    return os.environ.get(name, default)


def truthy_str(value: str | None) -> bool:
    """Shared truthiness parse: unset/empty/0/false/no/off are false."""
    return (value or "").strip().lower() not in ("", "0", "false", "no",
                                                 "off")


def truthy(name: str) -> bool:
    """Whether the variable is set to a truthy value."""
    return truthy_str(raw(name))


def floating(name: str, default: float) -> float:
    """The variable as a float; unset, empty or unparseable gives
    ``default``."""
    value = raw(name)
    if value is None or not value.strip():
        return default
    try:
        return float(value)
    except ValueError:
        return default


@contextlib.contextmanager
def override(values: Mapping[str, str | None]) -> Iterator[None]:
    """Temporarily set (or, with ``None``, unset) environment knobs.

    The previous values are restored on exit even when the body raises.
    Chaos harnesses use this to pin scheduler knobs for one sweep
    without leaking state into the surrounding process.
    """
    saved = {name: os.environ.get(name) for name in values}
    try:
        for name, value in values.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, prior in saved.items():
            if prior is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = prior


def workers() -> int:
    """``REPRO_WORKERS`` as a worker count: unset or empty gives 1 and
    anything below 1 clamps to 1; a value that is not an integer raises
    :class:`ConfigError`, which the CLI turns into exit status 2."""
    value = raw(WORKERS_ENV_VAR) or "1"
    try:
        return max(int(value), 1)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer, "
                          f"got {value!r}") from None
