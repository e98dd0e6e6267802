"""The lint finding record and suppression-comment parsing."""

from __future__ import annotations

from typing import Dict, NamedTuple, Set, Tuple

__all__ = [
    "LintFinding",
    "SUPPRESSION_MARK",
    "suppressed_lines",
]

#: A trailing ``# lint-ok: <CODE>[, <CODE>...]`` comment silences those
#: findings on its line (used sparingly, and visible in review).
SUPPRESSION_MARK = "# lint-ok:"


class LintFinding(NamedTuple):
    """One rule violation at one source line."""

    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line,
                "code": self.code, "message": self.message}


def suppressed_lines(source: str) -> Set[Tuple[int, str]]:
    """The ``(line, code)`` pairs silenced by suppression comments.

    Codes are comma- or space-separated and case-insensitive.
    """
    suppressed: Set[Tuple[int, str]] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        at = line.find(SUPPRESSION_MARK)
        if at < 0:
            continue
        for raw in line[at + len(SUPPRESSION_MARK):].replace(",", " ").split():
            suppressed.add((lineno, raw.strip().upper()))
    return suppressed
