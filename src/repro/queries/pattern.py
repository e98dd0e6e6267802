"""Trajectory-query patterns: parsing and compilation to automata.

A pattern (Section 6.6) is a sequence of *location conditions*:

* ``?``      — any (possibly empty) sequence of locations;
* ``l``      — a run of location ``l`` of length at least 1;
* ``l[n]``   — a run of location ``l`` of length at least ``n``.

A trajectory matches iff its location string can be obtained by expanding
the conditions left to right.  Patterns are parsed from strings such as
``"? F0_R1[3] ? F0_R2[2] ?"`` (whitespace-separated conditions; location
names may contain anything but whitespace, ``[`` and ``?``).

Compilation goes pattern -> NFA (one state chain per run condition, a
self-looping state per wildcard) -> DFA by subset construction over the
reduced alphabet {mentioned locations} ∪ {OTHER}.  The DFA is what the
query evaluator uses: determinism guarantees each trajectory contributes
its probability exactly once to the match mass (an NFA would double count
trajectories reachable along several accepting runs).

Before anything compiles, :attr:`Pattern.named_locations` lets a caller
settle a pattern from a name table alone: every named condition needs at
least one visit, so a pattern naming a location a graph never holds
matches nothing.  :meth:`PatternDFA.colive` then settles what the
graph's per-level location sets can: which states can still accept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import PatternSyntaxError

__all__ = ["PatternAtom", "Pattern", "PatternDFA", "OTHER"]

#: The catch-all alphabet symbol for locations the pattern does not mention.
OTHER = "\x00OTHER"

_ATOM_RE = re.compile(r"^(?P<name>[^\s\[\]?]+)(?:\[(?P<count>-?\d+)\])?$")


@dataclass(frozen=True)
class PatternAtom:
    """One location condition: ``location`` repeated at least ``min_run`` times.

    ``None`` as ``location`` denotes the wildcard ``?``.  The paper's query
    generator uses ``n = -1`` to mean "use the bare ``l`` condition"; the
    parser normalises that to ``min_run = 1``.
    """

    location: Optional[str]
    min_run: int = 1

    def __post_init__(self) -> None:
        if self.location is None:
            return
        if self.min_run < 1:
            raise PatternSyntaxError(
                f"condition on {self.location!r}: run length must be >= 1, "
                f"got {self.min_run}")

    @property
    def is_wildcard(self) -> bool:
        return self.location is None

    def __str__(self) -> str:
        if self.location is None:
            return "?"
        if self.min_run == 1:
            return self.location
        return f"{self.location}[{self.min_run}]"


class Pattern:
    """A parsed trajectory-query pattern.

    ``named_locations`` is the set of locations its conditions name,
    taken once at construction: a trajectory that never visits one of
    them cannot match, which lets a query answer ``0.0`` from a graph's
    name table before the DFA is compiled (:meth:`dfa`, cached).
    """

    def __init__(self, atoms: Sequence[PatternAtom]) -> None:
        if not atoms:
            raise PatternSyntaxError("a pattern needs at least one condition")
        self.atoms: Tuple[PatternAtom, ...] = tuple(atoms)
        self.named_locations: FrozenSet[str] = frozenset(
            atom.location for atom in self.atoms
            if atom.location is not None)
        self._dfa: Optional[PatternDFA] = None

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        """Parse ``"? A[3] ? B ?"``-style pattern strings."""
        tokens = text.split()
        if not tokens:
            raise PatternSyntaxError(f"empty pattern: {text!r}")
        atoms: List[PatternAtom] = []
        for token in tokens:
            if token == "?":
                atoms.append(PatternAtom(None))
                continue
            match = _ATOM_RE.match(token)
            if match is None:
                raise PatternSyntaxError(f"cannot parse condition {token!r}")
            count = match.group("count")
            min_run = 1 if count is None or int(count) < 1 else int(count)
            atoms.append(PatternAtom(match.group("name"), min_run))
        return cls(atoms)

    @classmethod
    def visits(cls, *locations: str, min_runs: Optional[Sequence[int]] = None
               ) -> "Pattern":
        """The paper's workload shape: ``? l1[n1] ? l2[n2] ? ... ?``."""
        if not locations:
            raise PatternSyntaxError("Pattern.visits needs at least one location")
        runs = list(min_runs) if min_runs is not None else [1] * len(locations)
        if len(runs) != len(locations):
            raise PatternSyntaxError(
                f"{len(locations)} locations but {len(runs)} run lengths")
        atoms: List[PatternAtom] = [PatternAtom(None)]
        for location, run in zip(locations, runs):
            atoms.append(PatternAtom(location, max(1, run)))
            atoms.append(PatternAtom(None))
        return cls(atoms)

    # ------------------------------------------------------------------
    @property
    def mentioned_locations(self) -> Tuple[str, ...]:
        """Distinct location names the pattern refers to, in order."""
        seen: List[str] = []
        for atom in self.atoms:
            if atom.location is not None and atom.location not in seen:
                seen.append(atom.location)
        return tuple(seen)

    @property
    def num_conditions(self) -> int:
        """The number of non-wildcard conditions (the paper's query length)."""
        return sum(1 for atom in self.atoms if not atom.is_wildcard)

    def matches(self, trajectory: Sequence[str]) -> bool:
        """Deterministic semantics: does the location sequence match?"""
        dfa = self.dfa()
        state = dfa.start
        for location in trajectory:
            state = dfa.step(state, location)
        return state in dfa.accepting

    def dfa(self) -> "PatternDFA":
        """The compiled DFA (cached)."""
        if self._dfa is None:
            self._dfa = _compile(self)
        return self._dfa

    def __str__(self) -> str:
        return " ".join(str(atom) for atom in self.atoms)

    def __repr__(self) -> str:
        return f"Pattern({str(self)!r})"


class PatternDFA:
    """A deterministic automaton over {mentioned locations} ∪ {OTHER}.

    States are dense integers; ``step`` maps unmentioned locations to the
    ``OTHER`` symbol internally, so callers feed raw location names.
    :meth:`colive` gives, per step of a graph, the states from which an
    accepting state is still reachable over that graph's later levels.
    """

    def __init__(self, start: int,
                 transitions: Sequence[Dict[str, int]],
                 accepting: FrozenSet[int],
                 alphabet: FrozenSet[str]) -> None:
        self.start = start
        self.transitions = tuple(transitions)
        self.accepting = accepting
        self.alphabet = alphabet

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def symbol(self, location: str) -> str:
        """The alphabet symbol a location maps to."""
        return location if location in self.alphabet else OTHER

    def step(self, state: int, location: str) -> int:
        """The successor state after reading ``location``."""
        return self.transitions[state][self.symbol(location)]

    def colive(self, levels: Sequence[FrozenSet[str]]) -> List[int]:
        """Per level, the states that can still accept: bitsets.

        ``levels[tau]`` is the set of alphabet symbols (``OTHER``
        included) a trajectory may read at step ``tau``.  Entry ``tau``
        of the result has bit ``q`` set iff reading one symbol of each of
        ``levels[tau:]``, in order, can take state ``q`` to an accepting
        state; the last entry (``tau == len(levels)``) is the accepting
        set.  So a run is still possible from the start iff its bit is
        set in entry 0, and a state reached after reading step ``tau``
        is *co-live* iff its bit is set in entry ``tau + 1``.

        One backward pass, each step memoised on (symbol set, the next
        entry's bits): equal level sets hit, so a long graph whose levels
        repeat a few sets costs a few steps.  Closure: a state whose bit
        is clear in entry ``tau`` steps, on every symbol of
        ``levels[tau]``, only to states whose bit is clear in entry
        ``tau + 1``.
        """
        bits = _bitset(self.accepting)
        masks = [0] * (len(levels) + 1)
        masks[-1] = bits
        # Per symbol set, each state's successors on it as one bitset.
        successors: Dict[FrozenSet[str], List[int]] = {}
        memo: Dict[Tuple[FrozenSet[str], int], int] = {}
        for tau in range(len(levels) - 1, -1, -1):
            if not bits:
                break
            symbols = levels[tau]
            key = (symbols, bits)
            earlier = memo.get(key)
            if earlier is None:
                reach = successors.get(symbols)
                if reach is None:
                    reach = successors[symbols] = [
                        _bitset(row[symbol] for symbol in symbols)
                        for row in self.transitions]
                earlier = 0
                for state in range(len(reach)):
                    if reach[state] & bits:
                        earlier |= 1 << state
                memo[key] = earlier
            bits = masks[tau] = earlier
        return masks


def _bitset(states: Iterable[int]) -> int:
    bits = 0
    for state in states:
        bits |= 1 << state
    return bits


# ----------------------------------------------------------------------
# compilation: pattern -> epsilon-NFA -> DFA
# ----------------------------------------------------------------------

def _compile(pattern: Pattern) -> PatternDFA:
    nfa_transitions: List[Dict[str, Set[int]]] = []
    epsilon: List[Set[int]] = []

    def new_state() -> int:
        nfa_transitions.append({})
        epsilon.append(set())
        return len(nfa_transitions) - 1

    def add_edge(src: int, symbol: str, dst: int) -> None:
        nfa_transitions[src].setdefault(symbol, set()).add(dst)

    alphabet = pattern.named_locations
    symbols = tuple(alphabet) + (OTHER,)

    # Build a chain of fragments; ``current`` is the fragment's exit state.
    start = new_state()
    current = start
    for atom in pattern.atoms:
        if atom.is_wildcard:
            # A single state with a self-loop on every symbol, entered by
            # epsilon (the wildcard may be empty).
            loop = new_state()
            epsilon[current].add(loop)
            for symbol in symbols:
                add_edge(loop, symbol, loop)
            current = loop
        else:
            # min_run consuming states, the last self-looping on the symbol
            # (a run may be longer than its minimum).
            for _ in range(atom.min_run):
                nxt = new_state()
                add_edge(current, atom.location, nxt)
                current = nxt
            add_edge(current, atom.location, current)
    accept_state = current

    def closure(states: FrozenSet[int]) -> FrozenSet[int]:
        stack = list(states)
        seen = set(states)
        while stack:
            state = stack.pop()
            for nxt in epsilon[state]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    # Subset construction.
    start_set = closure(frozenset({start}))
    subset_ids: Dict[FrozenSet[int], int] = {start_set: 0}
    dfa_transitions: List[Dict[str, int]] = [{}]
    worklist = [start_set]
    while worklist:
        subset = worklist.pop()
        sid = subset_ids[subset]
        for symbol in symbols:
            targets: Set[int] = set()
            for state in subset:
                targets |= nfa_transitions[state].get(symbol, set())
            target_set = closure(frozenset(targets))
            tid = subset_ids.get(target_set)
            if tid is None:
                tid = len(dfa_transitions)
                subset_ids[target_set] = tid
                dfa_transitions.append({})
                worklist.append(target_set)
            dfa_transitions[sid][symbol] = tid

    accepting = frozenset(sid for subset, sid in subset_ids.items()
                          if accept_state in subset)
    return PatternDFA(0, dfa_transitions, accepting, alphabet)
