"""Tests for trajectory-query patterns: parsing, DFA compilation, matching."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PatternSyntaxError
from repro.queries.pattern import OTHER, Pattern, PatternAtom


class TestParsing:
    def test_empty_pattern_rejected(self):
        with pytest.raises(PatternSyntaxError):
            Pattern.parse("   ")
        with pytest.raises(PatternSyntaxError):
            Pattern([])

    def test_wildcard(self):
        pattern = Pattern.parse("?")
        assert len(pattern.atoms) == 1
        assert pattern.atoms[0].is_wildcard

    def test_bare_location(self):
        pattern = Pattern.parse("A")
        assert pattern.atoms == (PatternAtom("A", 1),)

    def test_run_length(self):
        pattern = Pattern.parse("A[3]")
        assert pattern.atoms == (PatternAtom("A", 3),)

    def test_negative_run_normalised_to_one(self):
        # The paper's generator uses -1 for 'bare l'.
        pattern = Pattern.parse("A[-1]")
        assert pattern.atoms == (PatternAtom("A", 1),)

    def test_full_pattern(self):
        pattern = Pattern.parse("? A[3] ? B ?")
        assert str(pattern) == "? A[3] ? B ?"
        assert pattern.mentioned_locations == ("A", "B")
        assert pattern.num_conditions == 2

    def test_bad_tokens_rejected(self):
        with pytest.raises(PatternSyntaxError):
            Pattern.parse("A[")
        with pytest.raises(PatternSyntaxError):
            Pattern.parse("A[x]")

    def test_zero_run_atom_rejected(self):
        with pytest.raises(PatternSyntaxError):
            PatternAtom("A", 0)

    def test_visits_builder(self):
        pattern = Pattern.visits("A", "B", min_runs=[3, 1])
        assert str(pattern) == "? A[3] ? B ?"
        with pytest.raises(PatternSyntaxError):
            Pattern.visits()
        with pytest.raises(PatternSyntaxError):
            Pattern.visits("A", min_runs=[1, 2])


class TestMatching:
    def test_single_wildcard_matches_everything(self):
        pattern = Pattern.parse("?")
        assert pattern.matches(["A"])
        assert pattern.matches(["A", "B", "C"])

    def test_bare_location_needs_exact_run(self):
        pattern = Pattern.parse("A")
        assert pattern.matches(["A"])
        assert pattern.matches(["A", "A"])
        assert not pattern.matches(["A", "B"])
        assert not pattern.matches(["B"])

    def test_run_length_minimum(self):
        pattern = Pattern.parse("? A[3] ?")
        assert not pattern.matches(["A", "A"])
        assert pattern.matches(["A", "A", "A"])
        assert pattern.matches(["B", "A", "A", "A", "C"])
        # Interrupted runs do not count.
        assert not pattern.matches(["A", "A", "B", "A"])

    def test_sequencing(self):
        pattern = Pattern.parse("? A ? B ?")
        assert pattern.matches(["A", "B"])
        assert pattern.matches(["C", "A", "C", "B", "C"])
        assert not pattern.matches(["B", "A"])

    def test_same_location_twice(self):
        pattern = Pattern.parse("A ? A")
        assert not pattern.matches(["A"])
        assert pattern.matches(["A", "A"])      # empty wildcard, two runs
        assert pattern.matches(["A", "B", "A"])
        assert not pattern.matches(["A", "B", "B"])

    def test_anchored_pattern_without_wildcards(self):
        pattern = Pattern.parse("A B")
        assert pattern.matches(["A", "B"])
        assert pattern.matches(["A", "A", "B", "B"])
        assert not pattern.matches(["A", "B", "C"])
        assert not pattern.matches(["C", "A", "B"])

    def test_paper_example_shape(self):
        # '? l1[3] ? l2[2] ?' from Section 6.6.
        pattern = Pattern.parse("? L1[3] ? L2[2] ?")
        assert pattern.matches(["L1"] * 3 + ["X"] + ["L2"] * 2)
        assert pattern.matches(["Z", "L1", "L1", "L1", "L2", "L2", "Z"])
        assert not pattern.matches(["L1", "L1", "L1", "L2"])


class TestDFA:
    def test_dfa_is_cached(self):
        pattern = Pattern.parse("? A ?")
        assert pattern.dfa() is pattern.dfa()

    def test_unmentioned_locations_map_to_other(self):
        dfa = Pattern.parse("? A ?").dfa()
        assert dfa.symbol("A") == "A"
        assert dfa.symbol("Z") == OTHER

    def test_dfa_total_over_alphabet(self):
        dfa = Pattern.parse("? A[2] ? B ?").dfa()
        for state in range(dfa.num_states):
            for symbol in ("A", "B", OTHER):
                assert dfa.step(state, symbol) < dfa.num_states

    def test_live_states_depend_on_the_symbols(self):
        dfa = Pattern.parse("? A ? B ?").dfa()
        assert dfa.start not in dfa.live_states({"A", OTHER})
        assert dfa.live_states({"A", OTHER}) == dfa.accepting
        assert dfa.live_states({"A", "B", OTHER}) == set(
            range(dfa.num_states))

    def test_dead_states_step_only_to_dead_states(self):
        dfa = Pattern.parse("? A[2] ? B C ?").dfa()
        for symbols in ({"A", OTHER}, {"B", "C"}, {"A", "B", OTHER}):
            live = dfa.live_states(symbols)
            assert dfa.accepting <= live
            for state in set(range(dfa.num_states)) - live:
                assert all(dfa.transitions[state][symbol] not in live
                           for symbol in symbols)


def naive_match(atoms, trajectory):
    """Reference matcher: recursive expansion of the conditions."""
    def rec(ai, ti):
        if ai == len(atoms):
            return ti == len(trajectory)
        atom = atoms[ai]
        if atom.is_wildcard:
            return any(rec(ai + 1, tj)
                       for tj in range(ti, len(trajectory) + 1))
        run = 0
        tj = ti
        while tj < len(trajectory) and trajectory[tj] == atom.location:
            tj += 1
            run += 1
            if run >= atom.min_run and rec(ai + 1, tj):
                return True
        return False
    return rec(0, 0)


@st.composite
def patterns_and_trajectories(draw):
    atoms = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            atoms.append(PatternAtom(None))
        else:
            atoms.append(PatternAtom(draw(st.sampled_from("AB")),
                                     draw(st.integers(min_value=1, max_value=3))))
    trajectory = draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=8))
    return Pattern(atoms), trajectory


@settings(max_examples=500, deadline=None)
@given(patterns_and_trajectories())
def test_dfa_matches_reference_semantics(case):
    pattern, trajectory = case
    assert pattern.matches(trajectory) == naive_match(pattern.atoms, trajectory)
