"""Markovian-stream view of cleaned data (the Section 5 remark).

The paper notes that ct-graphs "can be seen as Markovian streams", making
cleaned data directly consumable by Markovian-stream warehousing systems
(the Lahar project).  :class:`~repro.markov.stream.MarkovianStream` is that
export: per-timestep location marginals plus per-timestep transition
matrices.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.markov.stream import MarkovianStream

__all__ = ["MarkovianStream"]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.markov.stream": ("MarkovianStream",),
})
