"""Streaming cleaning with durable checkpoint/resume.

:class:`StreamingCleaner` is this repository's online form of
Algorithm 1: it ingests readings one at a time, keeps the forward
frontier of Definition 3 node states as the live filtered estimate, and
runs the backward conditioning when ``finalize()`` asks for a graph.
Its ``window`` setting chooses the memory bound.  ``window=None``
retains every row and finalizes over the whole stream.  An int
``window`` keeps O(window) memory: once more than ``window`` timesteps
are retained, the oldest level is *evicted* — its forward mass is
already collapsed onto the frontier of the next level (the
filtered-forward recursion is a sufficient statistic, Section 4 /
Definition 3), so dropping the level loses nothing the live estimate or
a window-limited ``finalize()`` needs.  Filtered estimates are
bit-identical for every window, and :meth:`StreamingCleaner.checkpoint`
/ :meth:`StreamingCleaner.resume` round-trip the whole session state
through the ``rfid-ctg/ckpt@1`` binary format so a killed process
resumes bit-exactly without reingesting.  See ``docs/streaming.md``.
"""

from repro.streaming.cleaner import StreamingCleaner

__all__ = ["StreamingCleaner"]
