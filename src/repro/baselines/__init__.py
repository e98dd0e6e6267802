"""Baselines the paper's related work contrasts against (Section 7).

* :mod:`repro.baselines.smoothing` — a SMURF-style per-reader smoothing
  filter [14]: fills false-negative gaps per reader with an adaptive
  window, *without* using the map or motility constraints;
* :mod:`repro.baselines.particles` — constraint-aware particle filtering
  in the spirit of the "sampling under constraints" line [4, 25]: an
  approximate, sample-based alternative to exact conditioning;
* :mod:`repro.baselines.beam` — a beam-limited variant of Algorithm 1's
  forward phase: bounded memory, approximate probabilities, useful when
  TT constraints blow the exact state space up.

All three exist so the evaluation can measure what the paper claims:
conditioning under integrity constraints beats constraint-free smoothing,
and the exact ct-graph beats sampling/approximation at comparable cost.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.baselines.beam import BeamCleaner
    from repro.baselines.particles import ParticleFilter
    from repro.baselines.smoothing import SmoothingFilter

__all__ = ["SmoothingFilter", "ParticleFilter", "BeamCleaner"]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.baselines.beam": ("BeamCleaner",),
    "repro.baselines.particles": ("ParticleFilter",),
    "repro.baselines.smoothing": ("SmoothingFilter",),
})
