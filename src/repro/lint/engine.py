"""Running the rules over files, rendering reports, the CLI entry point.

Stdlib only — this is the lint gate that runs even where ruff/mypy are
not installed.  Exit code 0 when clean, 1 when any finding is reported,
2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import FrozenSet, Iterator, List, Optional, Sequence

from repro.lint.findings import LintFinding, suppressed_lines
from repro.lint.registry import all_rules, rule_codes
import repro.lint.rules  # noqa: F401  (importing registers the L-rules)

__all__ = ["lint_path", "lint_source", "main", "python_files", "render_json"]


def lint_source(source: str, path: str = "<string>", *,
                select: Optional[FrozenSet[str]] = None) -> List[LintFinding]:
    """Every finding in one source text, suppressions applied, sorted.

    ``select`` restricts the run to those rule codes (``None`` = all).
    Raises :class:`SyntaxError` when the source does not parse.
    """
    tree = ast.parse(source, filename=path)
    findings: List[LintFinding] = []
    for rule in all_rules():
        if select is not None and rule.code not in select:
            continue
        findings.extend(rule.check(tree, path))
    suppressed = suppressed_lines(source)
    findings = [finding for finding in findings
                if (finding.line, finding.code) not in suppressed]
    findings.sort(key=lambda finding: (finding.path, finding.line,
                                       finding.code))
    return findings


def lint_path(path: Path, *,
              select: Optional[FrozenSet[str]] = None) -> List[LintFinding]:
    """Every finding in one file."""
    return lint_source(path.read_text(), str(path), select=select)


def python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files and directories (recursively, sorted) to ``.py`` paths."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def render_json(checked: int, findings: Sequence[LintFinding]) -> str:
    """The machine-readable report (``lint-report/1``)."""
    return json.dumps({
        "format": "lint-report/1",
        "files": checked,
        "summary": {"findings": len(findings)},
        "rules": [{"code": rule.code, "title": rule.title}
                  for rule in all_rules()],
        "findings": [finding.to_dict() for finding in findings],
    }, indent=2, sort_keys=True)


def _parse_select(raw: Optional[str]) -> Optional[FrozenSet[str]]:
    if raw is None:
        return None
    codes = {token.strip().upper() for token in raw.replace(",", " ").split()}
    unknown = codes - set(rule_codes())
    if unknown:
        raise ValueError(
            f"unknown lint rule code(s) {sorted(unknown)}; "
            f"registered: {', '.join(rule_codes())}")
    return frozenset(codes)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The ``python -m repro.lint`` / ``rfid-ctg lint`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Engine-invariant AST lint (rules L001-L009; see "
                    "docs/lint.md).  Stdlib only.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (recursively)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.title}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro.lint: no paths given", file=sys.stderr)
        return 2
    try:
        select = _parse_select(args.select)
    except ValueError as error:
        print(f"repro.lint: {error}", file=sys.stderr)
        return 2

    findings: List[LintFinding] = []
    checked = 0
    for path in python_files(args.paths):
        try:
            findings.extend(lint_path(path, select=select))
        except SyntaxError as error:
            print(f"{path}: could not parse: {error}", file=sys.stderr)
            return 2
        except OSError as error:
            print(f"{path}: {error}", file=sys.stderr)
            return 2
        checked += 1

    if args.format == "json":
        print(render_json(checked, findings))
        return 1 if findings else 0
    for finding in findings:
        print(finding)
    if findings:
        print(f"repro.lint: {len(findings)} finding(s) in {checked} "
              f"file(s)", file=sys.stderr)
        return 1
    print(f"repro.lint: {checked} file(s) clean")
    return 0
