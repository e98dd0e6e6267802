"""Tests for the repro.lint engine-invariant linter (rules L001-L009)."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    LintFinding,
    LintRule,
    all_rules,
    lint_path,
    lint_source,
    main,
    register,
    rule_codes,
    suppressed_lines,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def codes_for(source: str) -> list:
    return [finding.code for finding in lint_source(textwrap.dedent(source))]


class TestRegistry:
    def test_at_least_eight_rules_registered(self):
        assert len(all_rules()) >= 8

    def test_codes_are_the_l_series(self):
        assert rule_codes() == ("L001", "L002", "L003", "L004",
                                "L005", "L006", "L007", "L008", "L009",
                                "L010")

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.code and rule.title and rule.rationale

    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            @register
            class Clone(LintRule):  # noqa: F811 - intentionally clashing
                code = "L001"
                title = "clone"

    def test_codeless_rule_rejected(self):
        with pytest.raises(ValueError, match="no code"):
            @register
            class Codeless(LintRule):
                title = "no code at all"


class TestFixtures:
    """Each known-bad snippet triggers exactly its own rule."""

    @pytest.mark.parametrize("code", ["L001", "L002", "L003", "L004",
                                      "L005", "L006", "L007", "L008",
                                      "L009", "L010"])
    def test_bad_fixture_triggers_exactly_its_rule(self, code):
        fixture = FIXTURES / f"bad_{code.lower()}.py"
        findings = lint_path(fixture)
        assert findings, f"{fixture.name} triggered nothing"
        assert {finding.code for finding in findings} == {code}

    def test_clean_fixture_passes_every_rule(self):
        assert lint_path(FIXTURES / "clean_example.py") == []

    def test_fixture_lines_point_at_the_violation(self):
        findings = lint_path(FIXTURES / "bad_l001.py")
        sources = (FIXTURES / "bad_l001.py").read_text().splitlines()
        for finding in findings:
            assert "==" in sources[finding.line - 1] or \
                "!=" in sources[finding.line - 1]


class TestInternedMutation:
    def test_foreign_subscript_write_flagged(self):
        assert codes_for("cache._rows[0] = row\n") == ["L004"]

    def test_foreign_mutating_call_flagged(self):
        assert codes_for("plan._du_rows.update(rows)\n") == ["L004"]

    def test_foreign_rebinding_flagged(self):
        assert codes_for("cache._states = []\n") == ["L004"]

    def test_augassign_through_foreign_receiver_flagged(self):
        assert codes_for("cache._levels += [row]\n") == ["L004"]

    def test_self_mutation_allowed(self):
        assert codes_for(
            "class Cache:\n"
            "    def intern(self, key, row):\n"
            "        self._rows[key] = row\n"
            "        self._states.append(row)\n") == []

    def test_non_interned_attributes_allowed(self):
        assert codes_for("graph._node_marginals = None\n") == []

    def test_reads_allowed(self):
        assert codes_for("states = cache._states\n") == []


class TestSetIteration:
    def test_for_over_set_literal_flagged(self):
        assert codes_for("for x in {1, 2}:\n    pass\n") == ["L005"]

    def test_comprehension_over_set_call_flagged(self):
        assert codes_for("out = [x for x in set(items)]\n") == ["L005"]

    def test_list_of_set_flagged(self):
        assert codes_for("out = list(set(items))\n") == ["L005"]

    def test_membership_test_allowed(self):
        assert codes_for("ok = x in {1, 2, 3}\n") == []

    def test_sorted_set_allowed(self):
        assert codes_for("for x in sorted(set(items)):\n    pass\n") == []


class TestWorkerBoundary:
    def test_lambda_to_submit_flagged(self):
        assert codes_for("pool.submit(lambda: 1)\n") == ["L006"]

    def test_lambda_keyword_argument_flagged(self):
        assert codes_for("pool.apply_async(func=lambda: 1)\n") == ["L006"]

    def test_named_function_allowed(self):
        assert codes_for("pool.submit(worker, chunk)\n") == []

    def test_builtin_map_allowed(self):
        # In-process map never pickles.
        assert codes_for("out = map(lambda x: x, items)\n") == []


class TestAssertAndCsr:
    def test_assert_flagged(self):
        assert codes_for("assert x > 0\n") == ["L007"]

    def test_csr_subscript_flagged_outside_accessors(self):
        assert codes_for("child = graph.edge_children[i]\n") == ["L008"]

    def test_csr_subscript_allowed_in_flatgraph(self):
        findings = lint_source("child = self.edge_children[i]\n",
                               "src/repro/core/flatgraph.py")
        assert findings == []

    def test_csr_subscript_allowed_in_queries(self):
        findings = lint_source("child = graph.edge_children[i]\n",
                               "src/repro/queries/session.py")
        assert findings == []


class TestMultipliedMutable:
    def test_multiplied_list_literal_flagged(self):
        assert codes_for("rows = [[]] * duration\n") == ["L009"]

    def test_multiplied_dict_literal_flagged(self):
        assert codes_for("rows = [{}] * n\n") == ["L009"]

    def test_reversed_operand_order_flagged(self):
        assert codes_for("rows = n * [[]]\n") == ["L009"]

    def test_constructor_call_element_flagged(self):
        assert codes_for("rows = [list()] * n\n") == ["L009"]

    def test_immutable_elements_allowed(self):
        assert codes_for("row = [0.0] * n\n") == []
        assert codes_for("row = [None] * n\n") == []
        assert codes_for("pair = ((), ()) * n\n") == []

    def test_numeric_multiplication_allowed(self):
        assert codes_for("area = width * height\n") == []


class TestSuppression:
    def test_lint_ok_comment_suppresses(self):
        assert lint_source("ok = p == 0.5  # lint-ok: L001\n") == []

    def test_suppression_is_code_specific(self):
        (finding,) = lint_source("ok = p == 0.5  # lint-ok: L002\n")
        assert finding.code == "L001"

    def test_multiple_codes_on_one_line(self):
        source = "assert p == 0.5  # lint-ok: L001, L007\n"
        assert lint_source(source) == []

    def test_codes_normalised(self):
        assert suppressed_lines("x = 1  # lint-ok: l003 L001\n") == {
            (1, "L003"), (1, "L001")}


class TestSelect:
    def test_select_restricts_rules(self):
        source = "assert p == 0.5\n"
        assert [f.code for f in lint_source(source)] == ["L001", "L007"]
        selected = lint_source(source, select=frozenset({"L007"}))
        assert [f.code for f in selected] == ["L007"]

    def test_findings_are_sorted_and_printable(self):
        source = "assert p == 0.5\n"
        findings = lint_source(source, path="x.py")
        assert findings == sorted(
            findings, key=lambda f: (f.path, f.line, f.code))
        assert str(findings[0]) == f"x.py:1: L001 {findings[0].message}"
        assert isinstance(findings[0], LintFinding)


class TestMain:
    def test_clean_tree_exits_0(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "1 file(s) clean" in capsys.readouterr().out

    def test_findings_exit_1_with_locations(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("flag = p == 0.5\n")
        assert main([str(tmp_path)]) == 1
        assert "bad.py:1: L001" in capsys.readouterr().out

    def test_unparsable_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def (:\n")
        assert main([str(tmp_path)]) == 2

    def test_no_paths_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_select_exits_2(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--select", "L999"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("flag = p == 0.5\n")
        assert main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "lint-report/1"
        assert payload["summary"]["findings"] == 1
        assert payload["findings"][0]["code"] == "L001"
        assert len(payload["rules"]) >= 8

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in rule_codes():
            assert code in out

    def test_repo_sources_are_clean(self, capsys):
        assert main([str(REPO_ROOT / "src")]) == 0

    def test_fixture_directory_fails_the_gate(self, capsys):
        # The self-test CI job relies on the fixtures being red.
        assert main([str(FIXTURES)]) == 1


class TestCliSubcommand:
    def test_rfid_ctg_lint_routes_to_the_engine(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        (tmp_path / "bad.py").write_text("flag = p == 0.5\n")
        assert cli_main(["lint", str(tmp_path)]) == 1
        assert "L001" in capsys.readouterr().out
        assert cli_main(["lint", "--list-rules"]) == 0
