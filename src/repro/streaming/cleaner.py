"""The streaming cleaner (see the package docstring).

Correctness rests on the Markov property of the node state
``(location, stay, TL)``: validity and probability of any continuation
depend on the past only through the forward frontier.  The cleaner
keeps the candidate rows of its retained levels plus forward
frontiers:

* the *live* frontier — the one after the newest row — is the filtered
  estimate.  ``backend="python"`` advances it through the oracle
  :func:`~repro.core.incremental.advance_frontier`; ``"auto"`` and
  ``"numpy"`` through the compact engine's memoised rows
  (:meth:`~repro.core.engine.EngineCache.advance`), bit for bit the same;
* with an int ``window`` it also keeps the frontier after every
  retained row, because the *first* retained frontier is the exact
  compact summary of every evicted level: its per-state forward mass is
  the collapsed prefix probability of entering the window in that
  state, which is all :meth:`StreamingCleaner.finalize` needs to
  condition the retained window (the window graph's source prior).
  Eviction is therefore free — the bounded deques drop their oldest
  entry — and exact; what is *lost* is only the ability to answer
  queries about evicted timesteps;
* with ``window=None`` nothing is ever evicted, so only the live
  frontier is kept and memory grows with the rows alone.

Checkpointing serialises the rows, one frontier, and the session meta
through :func:`repro.store.format.write_stream_checkpoint` (raw float64,
dict orders preserved).  Every later frontier is one deterministic
advance from the one before, so :meth:`StreamingCleaner.resume` replays
the retained rows from the stored frontier through the session's own
advance — which is what makes a resumed session bit-identical to an
uninterrupted one, pinned by the hypothesis suite in
``tests/test_streaming.py``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, replace
from typing import TYPE_CHECKING, Deque, Dict, Mapping, Optional, Tuple, Union

from repro.core.algorithm import (
    CleaningOptions,
    _condition_levels,
    build_ct_graph,
)
from repro.core.constraints import ConstraintSet
from repro.core.ctgraph import CTGraph
from repro.core.engine import EngineCache
from repro.core.flatgraph import FlatCTGraph
from repro.core.incremental import (
    Frontier,
    advance_frontier,
    coerce_candidate_row,
    frontier_to_dict,
)
from repro.core.lsequence import LSequence
from repro.core.nodes import (
    state_departures,
    state_location,
    state_stay,
)
from repro.errors import (
    InconsistentReadingsError,
    ReadingSequenceError,
    ReproError,
    StoreFormatError,
)

if TYPE_CHECKING:
    from repro.store.format import MappedCTGraph

__all__ = ["StreamingCleaner", "DEFAULT_WINDOW", "FinalizedGraph"]

#: Default retained-window length (timesteps); matches the bounded-memory
#: gate in ``benchmarks/bench_streaming.py``.
DEFAULT_WINDOW = 64

#: What :meth:`StreamingCleaner.finalize` returns — the shape follows
#: ``options.materialize`` exactly as in :func:`build_ct_graph`:
#: ``"nodes"``/``"auto"`` yield a :class:`CTGraph`, ``"flat"`` a
#: :class:`FlatCTGraph`, ``"store"`` an mmap-backed
#: :class:`~repro.store.format.MappedCTGraph` view of the written file.
FinalizedGraph = Union[CTGraph, FlatCTGraph, "MappedCTGraph"]


def _is_count(value) -> bool:
    """A non-negative int that is not a bool (checkpoint meta counts)."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


class StreamingCleaner:
    """Live cleaning of one object: filtered estimates, exact finalize.

    ``extend`` / ``extend_reading`` ingest one timestep and advance the
    forward frontier; ``filtered_distribution`` is the live estimate
    ``P(X_now | readings so far, prefix validity)``; ``finalize`` runs
    the exact backward conditioning; ``checkpoint`` / ``resume`` persist
    and restore the whole session bit-exactly through the
    ``rfid-ctg/ckpt@1`` format.

    ``window`` chooses the memory bound:

    * ``window=None`` never evicts — :meth:`lsequence` and
      :meth:`finalize` cover the whole stream, and ``finalize()`` equals
      :func:`~repro.core.algorithm.build_ct_graph` on it;
    * an int ``window`` keeps only the last ``window`` levels (the
      retained window ``[base, duration)``), so memory is O(window).
      While nothing has been evicted (``base == 0``) ``finalize()`` still
      delegates to ``build_ct_graph``; afterwards it conditions the
      retained window with the reference builder seeded by the entry
      frontier, so ``options.engine``/``options.backend`` apply only
      while ``base == 0``.

    Filtered estimates never depend on ``window`` — every setting gives
    the same float bits.
    """

    def __init__(self, constraints: ConstraintSet, *,
                 window: Optional[int] = DEFAULT_WINDOW,
                 options: CleaningOptions = CleaningOptions(),
                 prior=None, cache: Optional[EngineCache] = None) -> None:
        if window is not None and not (_is_count(window) and window >= 1):
            raise ReadingSequenceError(
                f"window must be a positive integer or None, got "
                f"{window!r}")
        self.constraints = constraints
        self.options = options
        self.prior = prior
        self.window = window
        self._rows: Deque[Dict[str, float]] = deque(maxlen=window)
        # Per-level frontiers exist only so eviction can move the entry
        # summary forward; an unbounded cleaner keeps the live one alone.
        self._frontiers: Deque[Frontier] = deque(
            maxlen=1 if window is None else window)
        self._duration = 0
        # Whether finalize() already wrote the *configured* options.output
        # (an explicit finalize(output=...) never sets this).
        self._output_consumed = False
        # The memoised rows the non-python backends advance through.  A
        # StreamSessionManager passes one cache to every session, so a
        # row computed for one object serves the whole fleet; a cache
        # built for other constraints would give wrong rows, so the
        # session then keeps its own.
        self._cache: Optional[EngineCache] = None
        if options.backend != "python":
            if cache is None or cache.constraints != constraints:
                cache = EngineCache(constraints)
            self._cache = cache

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def duration(self) -> int:
        """Total timesteps ingested over the session's whole lifetime."""
        return self._duration

    @property
    def base(self) -> int:
        """The first *retained* timestep (== how many levels were evicted)."""
        return self._duration - len(self._rows)

    @property
    def retained_duration(self) -> int:
        """How many levels are held in memory (``duration - base``)."""
        return len(self._rows)

    def frontier_size(self) -> int:
        """How many node states the live frontier carries."""
        return len(self._live())

    def _live(self) -> Frontier:
        return self._frontiers[-1] if self._frontiers else {}

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def extend_reading(self, readers) -> None:
        """Append one raw reading (requires a ``prior`` at construction)."""
        if self.prior is None:
            raise ReadingSequenceError(
                "extend_reading needs a prior model; pass prior= to the "
                "constructor or use extend() with a distribution")
        self.extend(self.prior.distribution(readers))

    def extend(self, candidates: Mapping[str, float]) -> None:
        """Append one timestep's location distribution and advance.

        Raises :class:`InconsistentReadingsError` when no valid
        continuation exists (the stream contradicts the constraints), and
        :class:`ReadingSequenceError` when the candidates are not a
        mapping or a probability does not coerce to a float or is NaN,
        infinite, or negative — malformed input is rejected, never
        silently dropped.  The cleaner's state is unchanged in either
        case, so the caller may drop the offending reading and continue.
        With an int ``window`` a full window evicts its oldest level; its
        forward mass already lives on in the next level's frontier, so
        nothing is recomputed.
        """
        row = coerce_candidate_row(candidates, self._duration)
        frontier = self._advance(self._live(), row, self._duration)
        if not frontier:
            raise InconsistentReadingsError(
                f"no valid continuation at timestep {self._duration}")
        self._rows.append(row)
        self._frontiers.append(frontier)
        self._duration += 1

    def _advance(self, frontier: Frontier, row: Mapping[str, float],
                 tau: int) -> Frontier:
        """The frontier at ``tau`` from the one at ``tau - 1``."""
        cache = self._cache
        if cache is None:
            return advance_frontier(frontier, row, tau, self.constraints)
        return cache.advance(frontier, row) if tau else cache.seed(row)

    # ------------------------------------------------------------------
    # live estimates
    # ------------------------------------------------------------------
    def filtered_distribution(self) -> Dict[str, float]:
        """``P(X_now | readings so far, prefix validity)`` — the live estimate."""
        if not self._rows:
            raise ReadingSequenceError("no readings ingested yet")
        frontier = self._live()
        if isinstance(frontier, dict):
            raw: Dict[str, float] = {}
            for state, mass in frontier.items():
                location = state_location(state)
                raw[location] = raw.get(location, 0.0) + mass
        else:
            raw = frontier.location_masses()
        total = math.fsum(raw.values())
        return {location: mass / total for location, mass in raw.items()}

    def lsequence(self) -> LSequence:
        """The *retained-window* l-sequence (an independent copy).

        Covers timesteps ``[base, duration)`` — the whole stream when
        ``window=None``.  Mutating the returned object never affects the
        cleaner.
        """
        if not self._rows:
            raise ReadingSequenceError("no readings ingested yet")
        return LSequence([dict(row) for row in self._rows], _validate=False)

    # ------------------------------------------------------------------
    # conditioning
    # ------------------------------------------------------------------
    def finalize(self, *, output: Optional[str] = None) -> FinalizedGraph:
        """Condition the retained window and return its ct-graph.

        While nothing has been evicted (``base == 0``, always the case
        with ``window=None``) this is the batch algorithm on the whole
        stream, in the shape ``options.materialize`` selects (see
        :data:`FinalizedGraph`).  With an evicted prefix the graph covers
        timesteps ``[base, duration)``, relabelled
        ``0..retained_duration - 1``: its sources are the entry
        frontier's node states weighted by their collapsed prefix mass,
        so every marginal and trajectory probability over the window
        equals what the full-stream graph would answer (the Markov
        property; pinned against brute-force enumeration by the tests).
        ``TL`` departure times inside the graph are rebased to the same
        relative labelling (entries about evicted timesteps go
        negative).

        The cleaner keeps its state — ingesting and finalizing may
        interleave freely.  With ``"store"`` materialisation each call
        writes one file: the constructor-configured ``options.output``
        is honoured for the *first* call only, and every further call
        must name a fresh path via ``output=`` (raising
        :class:`ReadingSequenceError` otherwise) instead of silently
        overwriting the earlier result.  An explicit ``output=`` also
        works with ``materialize="auto"`` options, returning the mapped
        view.
        """
        if not self._rows:
            raise ReadingSequenceError("no readings ingested yet")
        options, consumed = self._finalize_options(output)
        if self.base == 0:
            graph = build_ct_graph(self.lsequence(), self.constraints,
                                   options)
        else:
            # No departure filter: it needs future support, which a live
            # window does not have; the extra unpruned states never
            # change probabilities.
            graph = _condition_levels(
                frontier_to_dict(self._frontiers[0]), list(self._rows),
                self.constraints, options, offset=self.base)
        if consumed:
            self._output_consumed = True
        return graph

    def _finalize_options(self, output: Optional[str],
                          ) -> Tuple[CleaningOptions, bool]:
        """``(effective options, consumes the configured output)``.

        An explicit ``output=`` always wins (and forces
        ``materialize="store"``, which must not contradict an explicit
        non-store materialisation); the configured ``options.output`` may
        be written exactly once per cleaner.
        """
        options = self.options
        if output is not None:
            if options.materialize not in ("auto", "store"):
                raise ReadingSequenceError(
                    f"finalize(output=...) writes a .ctg file, which "
                    f"requires materialize='store' (or 'auto'), "
                    f"not {options.materialize!r}")
            return (replace(options, materialize="store",
                            output=str(output)), False)
        if not options.store_materialize:
            return options, False
        if self._output_consumed:
            raise ReadingSequenceError(
                f"finalize() already wrote {options.output!r}; calling it "
                "again would silently overwrite that file — pass "
                "finalize(output=...) with a fresh path (or re-use the old "
                "one explicitly)")
        return options, True

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self, path, *, extra_meta: Optional[Dict] = None) -> int:
        """Persist the whole session to ``path``; returns bytes written.

        The write is atomic (tmp + ``os.replace``) and carries a CRC —
        see :func:`repro.store.format.write_stream_checkpoint`.  The
        meta section records window, base, duration, the cleaning
        options and the constraint set, so :meth:`resume` needs nothing
        but the file (the ``prior`` is the one runtime object that
        cannot be serialised and must be supplied again).  The levels
        carry the retained rows and one frontier: a windowed session
        writes its entry frontier (on the first level), an unbounded one
        its live frontier (on the last level); every other level carries
        an empty frontier.  ``extra_meta`` entries (e.g. an object id)
        ride along verbatim under keys that must not collide with the
        session's own.
        """
        from repro.io.jsonio import constraints_to_dicts
        from repro.store.format import write_stream_checkpoint

        ids: Dict[str, int] = {}

        def intern(name: str) -> int:
            lid = ids.get(name)
            if lid is None:
                lid = ids[name] = len(ids)
            return lid

        entry = self._entry_level(len(self._rows))
        rows = []
        frontiers = []
        for level, row in enumerate(self._rows):
            rows.append([(intern(location), probability)
                         for location, probability in row.items()])
            stored = (frontier_to_dict(self._frontiers[0])
                      if level == entry else {})
            frontiers.append([
                (intern(state_location(state)), state_stay(state),
                 tuple((time, intern(location)) for time, location
                       in state_departures(state)), mass)
                for state, mass in stored.items()])
        meta = {
            "window": self.window,
            "base": self.base,
            "duration": self._duration,
            "output_consumed": self._output_consumed,
            "options": asdict(self.options),
            "constraints": constraints_to_dicts(self.constraints),
        }
        if extra_meta:
            collisions = sorted(set(extra_meta) & set(meta))
            if collisions:
                raise ReadingSequenceError(
                    f"extra_meta keys {collisions} collide with the "
                    "checkpoint's own meta")
            meta.update(extra_meta)
        return write_stream_checkpoint(
            path, meta=meta, location_names=list(ids),
            rows=rows, frontiers=frontiers)

    def _entry_level(self, levels: int) -> int:
        """The level whose frontier a checkpoint stores: the window's
        entry, or an unbounded session's live level."""
        return 0 if self.window is not None else levels - 1

    @classmethod
    def resume(cls, path, *, prior=None,
               cache: Optional[EngineCache] = None) -> "StreamingCleaner":
        """Rebuild a session from a :meth:`checkpoint` file.

        The restored cleaner is bit-identical to the one that wrote the
        checkpoint: same rows, frontiers, dict orders and float bits, so
        continuing the stream gives exactly the uninterrupted results.
        The stored frontier is adopted into the recorded backend's form
        and the retained rows after it are replayed through the session's
        own advance — at most ``window - 1`` steps; the frontiers of
        later levels, which files written by older versions carry, are
        ignored.  ``cache`` is a shared :class:`EngineCache` for the
        non-python backends, e.g. a fleet's.  Raises
        :class:`~repro.errors.StoreFormatError` /
        :class:`~repro.errors.StoreChecksumError` on a damaged file —
        including meta that does not describe a valid session: a window
        that is not a positive int or ``None``, ``base``/``duration``
        that are not non-negative ints with ``base <= duration``, a
        non-bool ``output_consumed``, invalid options or constraints,
        counts that disagree with the stored levels, no stored level
        after a reading, an empty stored frontier, or a retained row that
        no state of the replayed frontier can legally reach.
        """
        from repro.io.jsonio import constraints_from_dicts
        from repro.store.format import read_stream_checkpoint

        payload = read_stream_checkpoint(path)
        meta = payload.meta
        try:
            base = meta["base"]
            duration = meta["duration"]
            output_consumed = meta["output_consumed"]
            options = meta["options"]
            if isinstance(options, dict) and options.get("engine") == "auto":
                # Older checkpoints name the retired "auto" engine, which
                # routed between the two bit-identical engines.
                options = dict(options, engine="compact")
            cleaner = cls(constraints_from_dicts(meta["constraints"]),
                          window=meta["window"],
                          options=CleaningOptions(**options),
                          prior=prior, cache=cache)
        except (KeyError, TypeError, AttributeError, ReproError) as error:
            raise StoreFormatError(
                f"{path}: checkpoint meta is missing or malformed "
                f"({error})") from None
        if not (_is_count(base) and _is_count(duration)
                and base <= duration and isinstance(output_consumed, bool)):
            raise StoreFormatError(
                f"{path}: checkpoint meta is malformed (base={base!r}, "
                f"duration={duration!r}, "
                f"output_consumed={output_consumed!r})")
        window = cleaner.window
        levels = len(payload.rows)
        entry = cleaner._entry_level(levels)
        if duration - base != levels or \
                (levels > 0 and not payload.frontiers[entry]) or \
                (duration > 0 and levels == 0) or \
                (window is None and base != 0) or \
                (window is not None and levels > window):
            raise StoreFormatError(
                f"{path}: checkpoint meta is inconsistent with its levels "
                f"(base={base}, duration={duration}, {levels} levels, "
                f"window={window})")
        names = payload.location_names
        rows = [{names[lid]: probability for lid, probability in row_pairs}
                for row_pairs in payload.rows]
        stored = {
            (names[lid], stay,
             tuple((time, names[departed])
                   for time, departed in departures)): mass
            for lid, stay, departures, mass
            in (payload.frontiers[entry] if levels else ())}
        cleaner._restore(path, rows, stored, entry, duration=duration,
                         output_consumed=output_consumed)
        return cleaner

    def _restore(self, path, rows, stored: Dict, entry: int, *,
                 duration: int, output_consumed: bool) -> None:
        """Adopt checkpointed state (the tail of :meth:`resume`): the
        stored frontier of level ``entry``, then one advance per later
        retained row."""
        self._rows.extend(rows)
        self._duration = duration
        self._output_consumed = output_consumed
        if not rows:
            return
        tau = self.base + entry
        frontier: Frontier = stored
        if self._cache is not None:
            frontier = self._cache.adopt(stored, tau)
        self._frontiers.append(frontier)
        for row in rows[entry + 1:]:
            tau += 1
            frontier = self._advance(frontier, row, tau)
            if not frontier:
                raise StoreFormatError(
                    f"{path}: the retained row at timestep {tau} has no "
                    "valid continuation from the stored frontier")
            self._frontiers.append(frontier)
