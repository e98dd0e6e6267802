"""Optional-numpy level-sweep kernels over the flat (columnar) ct-graph form.

Every hot loop of this system — Algorithm 1's backward survival sweep and
the :class:`~repro.queries.session.QuerySession` DPs — is a *level-major*
sweep: per timestep, a gather along the CSR ``children`` column, an
elementwise multiply by the ``probabilities`` column, and a segment
reduction (sum or max) back onto the level's nodes.  Those are exactly the
shapes ndarray kernels excel at, so this module re-expresses the sweeps as
whole-level array ops:

* gathers are fancy indexing over cached ``int32`` children/parent views
  (for an mmap-served :class:`~repro.store.format.MappedCTGraph` the
  columns are ``memoryview`` casts of the ``.ctg`` file's little-endian
  ``int32``/``float64`` sections, so ``np.asarray`` wraps them without a
  copy — only the derived ``parents`` expansion is allocated);
* per-node segment *sums* are ``np.bincount(parents, weights=...)`` —
  unlike ``np.add.reduceat`` it is well-defined on empty segments (a node
  with no surviving edges just gets ``0.0``);
* per-node segment *maxima* are ``np.maximum.at`` scatter (max is
  order-independent, so the max-product suffix pass stays bit-exact with
  the python loop).

The streaming frontier advance has no kernel here: a stream's
``backend="auto"``/``"numpy"`` runs the compact engine's memoised rows
(:meth:`repro.core.engine.EngineCache.advance`), with or without numpy.

numpy is an **optional** dependency (the ``repro[numpy]`` extra), imported
on the first kernel call, so importing the core loads no numpy.  When it
is missing — or disabled through the ``REPRO_NO_NUMPY`` environment
variable, which the no-numpy CI leg and the fallback tests use — every
entry point degrades to the pure-python implementations, which remain the
default and the parity oracle.  Selection is
``CleaningOptions(backend="auto"|"python"|"numpy")`` /
``QuerySession(graph, backend=...)``: ``"python"`` always runs the oracle,
``"numpy"`` runs the kernels when numpy is importable (silently falling
back otherwise), and ``"auto"`` engages them only above
:data:`KERNEL_MIN_LEVEL_EDGES` mean edges per level, the calibrated
break-even below which per-level ndarray overhead loses to the plain
loops.

Accuracy contract (``docs/perf.md``): segment sums reassociate float
additions, so kernel results are pinned to the oracle by a *tolerance
gate* — ``math.isclose(rel_tol=1e-12)`` per float — while everything
discrete (which nodes/edges survive, dict key sets, tie-breaks, top-k
order) is pinned *exactly*.  The exact-structure half is sound because
every mass in these sweeps is nonnegative: a sum is zero iff every term
is zero, so reassociation can never flip a ``> 0.0`` test.
"""

from __future__ import annotations

import importlib.util
import os
from functools import lru_cache
from typing import Any, List, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "BACKENDS",
    "KERNEL_MIN_LEVEL_EDGES",
    "GraphViews",
    "alphas",
    "avoidance_mass",
    "best_suffixes",
    "entropy_bits",
    "masses_by_location",
    "numpy_available",
    "require_numpy",
    "resolve_backend",
    "span_mass",
]

#: The selectable sweep backends (``CleaningOptions.backend`` /
#: ``QuerySession(backend=...)``).
BACKENDS = ("auto", "python", "numpy")

#: Mean edges per edge level at and above which ``backend="auto"``
#: engages the numpy kernels.  Calibrated on duration-400 periodic
#: instances (best-of-5, alphas + suffix sweeps): the break-even sits
#: near ~30 edges/level, python wins clearly at ~15 (0.66x) and numpy
#: wins from ~60 up (1.8x at 63, 3x at 143, 5x+ from ~1000).  64 keeps a
#: comfortable margin over the noisy break-even band.
KERNEL_MIN_LEVEL_EDGES = 64


@lru_cache(maxsize=None)
def _numpy_installed() -> bool:
    """Whether numpy can be imported, found without importing it."""
    return importlib.util.find_spec("numpy") is not None


def numpy_available() -> bool:
    """Whether the numpy backend can run right now.

    False when numpy is not importable *or* the ``REPRO_NO_NUMPY``
    environment variable is set (read dynamically so tests and the
    no-numpy CI leg can gate the fallback without uninstalling anything).
    Answering imports no numpy.
    """
    return _numpy_installed() and not os.environ.get("REPRO_NO_NUMPY")


def require_numpy() -> Any:
    """The numpy module, or a typed error when the backend cannot run.

    Internal guard for code paths that already resolved to the numpy
    backend; user-facing selection goes through :func:`resolve_backend`,
    which falls back instead of raising.
    """
    if not numpy_available():
        raise ReproError(
            "the numpy kernel backend is unavailable (numpy not installed "
            "or REPRO_NO_NUMPY set); use backend='python' or install the "
            "repro[numpy] extra")
    import numpy

    return numpy


def resolve_backend(backend: str,
                    level_edges: Optional[float] = None) -> str:
    """Resolve a requested backend to a concrete one (never ``"auto"``).

    ``"python"`` passes through.  ``"numpy"`` resolves to itself when
    :func:`numpy_available`, else gracefully to ``"python"``.  ``"auto"``
    engages numpy only when it is available *and* ``level_edges`` (the
    instance's measured mean edge count per edge level)
    reaches :data:`KERNEL_MIN_LEVEL_EDGES`; with no width information it
    stays on python.  Unknown names raise :class:`ReproError`.
    """
    if backend == "python":
        return "python"
    if backend == "numpy":
        return "numpy" if numpy_available() else "python"
    if backend == "auto":
        if (numpy_available() and level_edges is not None
                and level_edges >= KERNEL_MIN_LEVEL_EDGES):
            return "numpy"
        return "python"
    raise ReproError(
        f"unknown kernel backend {backend!r}; expected one of {BACKENDS}")


class GraphViews:
    """Cached ndarray views of one :class:`FlatCTGraph`'s columns.

    The flat graph stores tuples (frozen, picklable); the kernels want
    contiguous arrays.  This wrapper converts each level **once**, on
    first touch, and caches the result: ``int32`` children/parents,
    ``float64`` probabilities, plus the per-edge ``parents`` expansion of
    the CSR offsets (``np.repeat`` over the row lengths) that turns
    per-node slice loops into one whole-level gather.  A mapped ``.ctg``
    view's ``memoryview`` columns already hold those dtypes, so for it
    ``np.asarray`` shares the file's bytes instead of copying them.  A
    :class:`~repro.queries.session.QuerySession` keeps one ``GraphViews``
    per graph, so the conversion cost amortises across every query and
    re-sweep of the session.
    """

    __slots__ = ("graph", "_source", "_levels", "_lids")

    def __init__(self, graph: Any) -> None:
        require_numpy()
        self.graph = graph
        self._source: Optional[Any] = None
        self._levels: List[Optional[Tuple[Any, Any, Any, int, int]]] = \
            [None] * max(0, graph.duration - 1)
        self._lids: List[Optional[Any]] = [None] * graph.duration

    @property
    def source(self) -> Any:
        """The conditioned source distribution as a float64 array."""
        if self._source is None:
            np = require_numpy()
            self._source = np.asarray(self.graph.source_probabilities,
                                      dtype=np.float64)
        return self._source

    def level_lids(self, tau: int) -> Any:
        """Level ``tau``'s per-node location ids as an int32 array."""
        cached = self._lids[tau]
        if cached is None:
            np = require_numpy()
            cached = np.asarray(self.graph.locations[tau], dtype=np.int32)
            self._lids[tau] = cached
        return cached

    def edge_level(self, tau: int) -> Tuple[Any, Any, Any, int, int]:
        """Edge level ``tau`` as ``(children, probabilities, parents,
        count, next_count)`` arrays (children/parents int32,
        probabilities float64)."""
        cached = self._levels[tau]
        if cached is None:
            np = require_numpy()
            graph = self.graph
            offsets = np.asarray(graph.edge_offsets[tau], dtype=np.int32)
            children = np.asarray(graph.edge_children[tau], dtype=np.int32)
            probabilities = np.asarray(graph.edge_probabilities[tau],
                                       dtype=np.float64)
            parents = np.repeat(
                np.arange(len(offsets) - 1, dtype=np.int32),
                np.diff(offsets))
            cached = (children, probabilities, parents,
                      len(offsets) - 1, len(graph.locations[tau + 1]))
            self._levels[tau] = cached
        return cached


# ----------------------------------------------------------------------
# QuerySession sweeps
# ----------------------------------------------------------------------
def alphas(views: GraphViews) -> List[Any]:
    """The forward (alpha) pass as whole-level array ops.

    Mirrors ``QuerySession.alphas``: the python loop's ``mass == 0.0``
    skip is subsumed by the arithmetic (a zero-mass parent contributes
    exactly ``0.0`` to every child, and ``x + 0.0 == x`` for the
    nonnegative masses involved).
    """
    np = require_numpy()
    rows: List[Any] = [views.source]
    for tau in range(views.graph.duration - 1):
        children, probabilities, parents, _count, next_count = \
            views.edge_level(tau)
        edge_mass = rows[tau][parents] * probabilities
        rows.append(np.bincount(children, weights=edge_mass,
                                minlength=next_count))
    return rows


def best_suffixes(views: GraphViews) -> List[Any]:
    """The max-product backward pass as whole-level array ops.

    Bit-exact with ``QuerySession._best_suffixes``: both sides take the
    maximum of the *same* pairwise products, and max is associative and
    commutative over floats, so reassociation cannot change the result.
    """
    np = require_numpy()
    graph = views.graph
    rows: List[Any] = [None] * graph.duration
    rows[-1] = np.ones(len(graph.locations[-1]), dtype=np.float64)
    for tau in range(graph.duration - 2, -1, -1):
        children, probabilities, parents, count, _next_count = \
            views.edge_level(tau)
        values = probabilities * rows[tau + 1][children]
        row = np.zeros(count, dtype=np.float64)
        np.maximum.at(row, parents, values)
        rows[tau] = row
    return rows


def masses_by_location(views: GraphViews, tau: int, alpha_row: Any) -> Any:
    """Level ``tau``'s alpha masses reduced onto location ids.

    Returns a float64 array indexed by location id; an id's entry is
    positive iff some node at that location carries positive mass (the
    sums are nonnegative, so reassociation cannot zero a positive entry),
    which keeps the marginal dicts' key sets exactly equal to the python
    oracle's.
    """
    np = require_numpy()
    return np.bincount(views.level_lids(tau), weights=alpha_row,
                       minlength=len(views.graph.location_names))


def entropy_bits(masses: Any) -> float:
    """Shannon entropy (bits) of a nonnegative mass vector."""
    np = require_numpy()
    positive = masses[masses > 0.0]
    if not len(positive):
        return 0.0
    return float(-np.sum(positive * np.log2(positive)))


def avoidance_mass(views: GraphViews, lid: int) -> float:
    """The surviving flow of the visit-avoidance sweep.

    Mirrors ``QuerySession.visit_probability``'s restricted forward pass:
    source mass at ``lid`` is dropped, and per level all flow *into*
    ``lid`` nodes is zeroed — zeroing after the scatter equals never
    scattering into them, because a zeroed node re-emits nothing.  Pass
    ``lid < 0`` for a location absent from the graph (nothing is avoided).
    Returns the final row's total mass.
    """
    np = require_numpy()
    graph = views.graph
    row = np.where((views.level_lids(0) != lid) & (views.source > 0.0),
                   views.source, 0.0)
    for tau in range(graph.duration - 1):
        children, probabilities, parents, _count, next_count = \
            views.edge_level(tau)
        edge_mass = row[parents] * probabilities
        row = np.bincount(children, weights=edge_mass,
                          minlength=next_count)
        row[views.level_lids(tau + 1) == lid] = 0.0
    return float(row.sum())


def span_mass(views: GraphViews, lid: int, start: int, end: int,
              alpha_row: Any) -> float:
    """The mass staying at location ``lid`` throughout ``[start, end]``.

    Mirrors ``QuerySession.span_probability``'s restricted flow:
    ``alpha_row`` is the alpha row of level ``start``; flow is masked to
    ``lid`` nodes at every step of the window.
    """
    np = require_numpy()
    row = np.where(views.level_lids(start) == lid, alpha_row, 0.0)
    for tau in range(start, end):
        children, probabilities, parents, _count, next_count = \
            views.edge_level(tau)
        edge_mass = row[parents] * probabilities
        row = np.bincount(children, weights=edge_mass,
                          minlength=next_count)
        row = np.where(views.level_lids(tau + 1) == lid, row, 0.0)
        if not row.any():
            return 0.0
    return float(row.sum())
