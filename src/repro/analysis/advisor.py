"""Static size estimate of one cleaning instance (rule C010).

The constraint envelope bounds, before any cleaning happens, how many
node states and edges the forward pass can enumerate.  :func:`advise`
turns those bounds into an :class:`EngineAdvice`: the predicted state
total and peak level width, the byte size of each materialised shape
(``CTNode`` objects, ``FlatCTGraph``, ``.ctg``), a materialisation
hint, and whether the envelope already proves ``ZeroMassError``.

Nothing on the build path consults it: ``build_ct_graph`` always runs
the compact engine.  ``rfid-ctg analyze --advise`` reports the
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.envelope import (
    ConstraintEnvelope,
    estimate_ctg_bytes,
    estimate_graph_bytes,
)
from repro.core.constraints import ConstraintSet
from repro.core.lsequence import LSequence

__all__ = [
    "FLAT_ADVICE_MIN_NODE_BYTES",
    "EngineAdvice",
    "advise",
]

#: Predicted node-form bytes above which materialising flat is advised.
FLAT_ADVICE_MIN_NODE_BYTES = 4 << 20


@dataclass(frozen=True)
class EngineAdvice:
    """The static size estimate of one instance."""

    #: Advised materialisation ("nodes" or "flat").
    materialize: str
    #: Envelope upper bound on total node states.
    predicted_states: int
    #: Envelope upper bound on the widest level.
    peak_level_width: int
    #: Predicted bytes if materialised as ``CTNode`` objects.
    predicted_node_bytes: int
    #: Predicted bytes if materialised as a ``FlatCTGraph``.
    predicted_flat_bytes: int
    #: Predicted on-disk bytes as a ``.ctg`` store entry
    #: (``materialize="store"`` / ``GraphStore``).
    predicted_ctg_bytes: int
    #: Duration of the advised l-sequence.
    duration: int
    #: Whether the envelope already proves ``ZeroMassError``.
    zero_mass: bool


def advise(lsequence: LSequence, constraints: ConstraintSet, *,
           strict_truncation: bool = False,
           envelope: Optional[ConstraintEnvelope] = None) -> EngineAdvice:
    """The static size estimate of one instance.

    Pass ``envelope`` to reuse an already-built
    :class:`~repro.analysis.envelope.ConstraintEnvelope` (e.g. from an
    ``analyze`` run); otherwise one is built here.
    """
    if envelope is None:
        envelope = ConstraintEnvelope(lsequence, constraints,
                                      strict_truncation=strict_truncation)
    widths = envelope.width_bounds()
    edges = envelope.edge_bounds()
    node_bytes, flat_bytes = estimate_graph_bytes(widths, edges)
    return EngineAdvice(
        materialize=("flat" if node_bytes >= FLAT_ADVICE_MIN_NODE_BYTES
                     else "nodes"),
        predicted_states=sum(widths),
        peak_level_width=max(widths) if widths else 0,
        predicted_node_bytes=node_bytes,
        predicted_flat_bytes=flat_bytes,
        predicted_ctg_bytes=estimate_ctg_bytes(widths, edges),
        duration=lsequence.duration,
        zero_mass=envelope.proves_zero_mass,
    )
