"""Command line for dvmlint: ``python -m repro.analysis`` / ``make analyze``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import config
from repro.analysis.core import all_rules
from repro.analysis.engine import run_analysis
from repro.analysis.reporters import FORMATS, RENDERERS


def _find_root(start: Path) -> Path:
    """The repo root: nearest ancestor holding ``pyproject.toml``."""
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="dvmlint: repo-aware static analysis enforcing the "
                    "simulator's determinism, fault-path and "
                    "observability invariants.")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to analyze, relative to "
                             "--root (default: "
                             f"{' '.join(config.DEFAULT_PATHS)})")
    parser.add_argument("--root", default=None,
                        help="repository root (default: nearest ancestor "
                             "of the working directory with a "
                             "pyproject.toml)")
    parser.add_argument("--format", "-f", choices=FORMATS, default="text",
                        help="report format (default: text)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="RULES",
                        help="only run these comma-separated rule ids or "
                             "family prefixes (e.g. DET,FAULT002)")
    parser.add_argument("--ignore", action="append", default=None,
                        metavar="RULES",
                        help="skip these comma-separated rule ids or "
                             "family prefixes")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def _split(values: list[str] | None) -> tuple[str, ...] | None:
    if not values:
        return None
    out: list[str] = []
    for value in values:
        out.extend(v.strip() for v in value.split(",") if v.strip())
    return tuple(out)


def list_rules(stream) -> None:
    for rule in all_rules():
        stream.write(f"{rule.id}  [{rule.severity}]  {rule.title}\n")
        stream.write(f"    {rule.rationale}\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        list_rules(sys.stdout)
        return 0
    root = Path(args.root) if args.root else _find_root(Path.cwd())
    paths = tuple(args.paths) if args.paths else config.DEFAULT_PATHS
    try:
        result = run_analysis(
            root, paths,
            select=_split(args.select), ignore=_split(args.ignore),
            use_cache=True)
    except FileNotFoundError as exc:
        print(f"dvmlint: {exc}", file=sys.stderr)
        return 2
    RENDERERS[args.format](result, sys.stdout)
    return result.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
