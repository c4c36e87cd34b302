"""Command-line driver: ``python -m repro.analysis`` / ``repro lint``.

Exit codes: 0 clean, 1 findings, 2 usage or unreadable/unparsable input
(mirroring ``repro verify``'s contract of 0/1/2).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.analysis.core import Project, SourceModule, run_rules, stale_ignores
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import ALL_RULES, rules_by_id


def default_root() -> str:
    """The ``repro`` package directory — the tree the rules guard."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def collect_paths(roots: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: set[str] = set()
    for root in roots:
        if os.path.isfile(root):
            collected.add(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in filenames:
                if filename.endswith(".py"):
                    collected.add(os.path.join(dirpath, filename))
    return sorted(collected)


def load_project(paths: Sequence[str]) -> tuple[Project, list[str]]:
    """Parse every path; returns the project and per-file error strings."""
    modules = []
    errors = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            modules.append(SourceModule(_display_path(path), text))
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{_display_path(path)}: {exc}")
    return Project(modules), errors


def _display_path(path: str) -> str:
    """Paths relative to the working directory, for stable reports."""
    relative = os.path.relpath(path)
    return relative if not relative.startswith("..") else path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="AST-based invariant linter for the storage stack "
        "(rules LF01-LF04, LF06, LF08, LF09)",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is deterministic for CI artifacts)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="LF01,LF02,...",
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--check-ignores", action="store_true",
        help="also flag lint: ignore markers that suppress nothing "
        "(reported as LF00 findings)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.title}")
        return 0
    try:
        rules = rules_by_id(
            args.rules.split(",") if args.rules is not None else None
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    roots = list(args.paths) or [default_root()]
    paths = collect_paths(roots)
    if not paths:
        print("error: no Python files found", file=sys.stderr)
        return 2
    project, errors = load_project(paths)
    if errors:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 2
    used: set[tuple[str, int, str]] = set()
    findings = run_rules(project, rules, used_suppressions=used)
    if args.check_ignores:
        findings.extend(
            stale_ignores(
                project, rules, used, known_ids={r.id for r in ALL_RULES}
            )
        )
        findings.sort()
    renderer = render_json if args.format == "json" else render_text
    output = renderer(findings, checked_files=len(project.modules))
    sys.stdout.write(output if output.endswith("\n") else output + "\n")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
