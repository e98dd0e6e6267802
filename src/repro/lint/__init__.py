"""Code-level static analysis: the engine-invariant linter.

Tier 2 of the repo's static-analysis stack (tier 1 is
:mod:`repro.analysis`, which analyses the *data* — constraints and
readings; this package analyses the *code*).  A pluggable AST-visitor
framework (:mod:`repro.lint.registry`) runs the registered rules
L001-L009 (:mod:`repro.lint.rules`) over source trees: invariants
ruff/mypy cannot express — interning immutability, worker-boundary
picklability, bit-exact determinism, ``python -O`` survival, CSR index
discipline.  ``docs/lint.md`` is the rule catalog.

Entry points: ``python -m repro.lint``, ``rfid-ctg lint`` and ``make
lint``.  A trailing ``# lint-ok: <CODE>`` comment suppresses a finding on
its line.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.lint.engine import (
        lint_path,
        lint_source,
        main,
        python_files,
        render_json,
    )
    from repro.lint.findings import SUPPRESSION_MARK, LintFinding, suppressed_lines
    from repro.lint.registry import LintRule, all_rules, register, rule_codes

__all__ = [
    "LintFinding",
    "LintRule",
    "SUPPRESSION_MARK",
    "all_rules",
    "lint_path",
    "lint_source",
    "main",
    "python_files",
    "register",
    "render_json",
    "rule_codes",
    "suppressed_lines",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.lint.engine": (
        "lint_path", "lint_source", "main", "python_files", "render_json",
    ),
    "repro.lint.findings": (
        "SUPPRESSION_MARK", "LintFinding", "suppressed_lines",
    ),
    "repro.lint.registry": ("LintRule", "all_rules", "register", "rule_codes"),
})
