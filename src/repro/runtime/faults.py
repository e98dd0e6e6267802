"""Deliberately faulty batch objects, for exercising the runtime's armour.

The fault-tolerant executor of :mod:`repro.runtime.batch` exists for two
failure shapes no ``try``/``except`` inside a worker can catch:

* a worker process that *dies* mid-task (segfault in a native dependency,
  the kernel's OOM killer, a stray ``os._exit``) — :class:`CrashingSequence`
  reproduces this exactly, because ``os._exit`` bypasses all exception
  handling and interpreter shutdown just like a signal would;
* a worker that never comes back (an object whose ct-graph expansion blows
  up past the C006 bound) — :class:`SlowSequence` stands in for it with a
  plain ``time.sleep`` ahead of an otherwise ordinary object.

Both classes live here — in an importable module rather than a test file —
so their instances unpickle inside ``spawn``-started workers too
(``tests/test_runtime_faults.py`` sends them through the pool).  They are
duck-typed l-sequences (``duration`` / ``candidates`` / ``support`` /
``probability``), the same surface :func:`repro.core.algorithm.build_ct_graph`
consumes.

Never feed a :class:`CrashingSequence` to an in-process run
(``workers=1``): the whole point is that it kills whichever process touches
it, and in-process that is *your* process.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Mapping, Sequence, Tuple

from repro.core.lsequence import LSequence

__all__ = ["CrashingSequence", "SlowSequence"]


class CrashingSequence:
    """A batch object that kills its worker process on first touch.

    ``exit_code`` is the status the worker dies with (any non-zero value
    makes ``ProcessPoolExecutor`` declare the pool broken).  Stateless but
    for that int, so it pickles to fork and spawn workers alike.
    """

    def __init__(self, duration: int = 2, exit_code: int = 87) -> None:
        self.duration = duration
        self.exit_code = exit_code

    def _die(self) -> None:
        # os._exit, not sys.exit: no SystemExit to catch, no atexit, no
        # stack unwinding — indistinguishable from an OOM kill as far as
        # the parent's pool is concerned.
        os._exit(self.exit_code)

    def candidates(self, tau: int) -> Dict[str, float]:
        self._die()
        raise AssertionError("unreachable")

    def support(self, tau: int) -> Tuple[str, ...]:
        self._die()
        raise AssertionError("unreachable")

    def probability(self, tau: int, location: str) -> float:
        self._die()
        raise AssertionError("unreachable")

    def __repr__(self) -> str:
        return (f"CrashingSequence(duration={self.duration}, "
                f"exit_code={self.exit_code})")


class SlowSequence(LSequence):
    """A normal l-sequence that stalls for ``seconds`` before cooperating.

    The sleep happens once, on the first ``candidates``/``support`` access
    *inside the worker*, which models an object whose forward expansion is
    pathologically expensive: the parent's per-object deadline fires while
    the worker sits in the task.  With a ``seconds`` below the deadline the
    object cleans normally and bit-identically to the plain
    :class:`LSequence` over the same rows.
    """

    def __init__(self, rows: Sequence[Mapping[str, float]],
                 seconds: float) -> None:
        super().__init__(rows)
        self.seconds = float(seconds)
        self._slept = False

    def candidates(self, tau: int) -> Dict[str, float]:
        if not self._slept:
            self._slept = True
            time.sleep(self.seconds)
        return super().candidates(tau)

    def __repr__(self) -> str:
        return (f"SlowSequence(duration={self.duration}, "
                f"seconds={self.seconds})")
