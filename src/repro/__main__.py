"""Command-line entry point: regenerate paper artifacts.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro figure8              # one artifact, full profile
    python -m repro figure8 --bench      # quick bench-scale version
    python -m repro all                  # everything (minutes)
    python -m repro obs <dir>            # render observability artifacts
    python -m repro fuzz                 # differential fuzz smoke (gen/)
    python -m repro pair bfs/FR --bench  # re-run one quarantined pair
    python -m repro sweep pairs --bench  # supervised sweep service entry
    python -m repro sweep --chaos-smoke  # scheduler chaos gate (CI)
    python -m repro top                  # live dashboard over the bus

With ``REPRO_OBS=1`` each artifact's observations (registry snapshot,
trace events) are flushed into ``<REPRO_OBS_DIR>/bus.ndjson`` after it
completes, which also refreshes the ``trace.json`` (Perfetto) and
``metrics.prom`` exports; ``python -m repro obs <dir>`` renders the
stream as text.
"""

from __future__ import annotations

import sys

from repro import obs
from repro.common.errors import ConfigError
from repro.experiments import (
    ablations,
    fault_model,
    figure2,
    figure8,
    figure9,
    figure10,
    multiplexing,
    security,
    table1,
    table4,
    table5,
    virt_extension,
)

#: Artifact name -> (runner, takes profile?).
ARTIFACTS = {
    "figure2": (figure2.main, True),
    "figure8": (figure8.main, True),
    "figure9": (figure9.main, True),
    "figure10": (lambda: figure10.main(), False),
    "table1": (table1.main, True),
    "table4": (lambda: table4.main(), False),
    "table5": (lambda: table5.main(), False),
    "ablations": (ablations.main, True),
    "faults": (fault_model.main, True),
    "virt": (lambda: virt_extension.main(), False),
    "multiplex": (multiplexing.main, True),
    "security": (lambda: security.main(), False),
}


def main(argv: list[str]) -> int:
    try:
        return _dispatch(argv)
    except ConfigError as exc:
        # The CLI boundary: library code raises ConfigError (never
        # SystemExit); here it becomes a usage message and exit code.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(argv: list[str]) -> int:
    args = [a for a in argv if not a.startswith("--")]
    profile = "bench" if "--bench" in argv else "full"
    if not args or args[0] in ("list", "help", "-h"):
        print(__doc__)
        print("artifacts:", ", ".join(sorted(ARTIFACTS)), "or 'all'")
        return 0
    if args[0] == "obs":
        from repro.obs import report
        return report.main(argv[1:])
    if args[0] == "top":
        from repro.obs import top
        return top.main(argv[1:])
    if args[0] == "pair":
        from repro.sim.runner import pair_main
        return pair_main(argv[1:])
    if args[0] == "sweep":
        from repro.sweep import cli as sweep_cli
        rc = sweep_cli.main(argv[1:])
        obs.flush(tag="sweep")
        return rc
    if args[0] == "fuzz":
        from repro.gen import cli as fuzz_cli
        rc = fuzz_cli.main(argv[1:])
        obs.flush(tag="fuzz")
        return rc
    names = sorted(ARTIFACTS) if args[0] == "all" else args
    for name in names:
        if name not in ARTIFACTS:
            print(f"unknown artifact {name!r}; have {sorted(ARTIFACTS)}")
            return 1
        runner, takes_profile = ARTIFACTS[name]
        print(f"=== {name} ===")
        if takes_profile:
            runner(profile)
        else:
            runner()
        obs.flush(tag=name)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
