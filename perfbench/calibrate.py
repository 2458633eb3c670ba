"""Host speed, measured by a fixed piece of work that does not touch mkdvsurf.

On a shared virtual machine the host's speed drifts by tens of percent over
tens of seconds, and every operation slows with it: on the 2-vCPU VM where
the benchmark was defined, one untraced verify pass took 1.8 to 2.8 s within
a minute.  Process CPU time does not remove the drift.  The time is lost to
other tenants' use of the shared caches and memory, not to descheduling:
over those passes CPU time and wall time agreed to 2%, and steal time stayed
under 1%.

So the benchmark times a fixed chunk of work (``chunk``) next to the
program's.  Right after every operation it runs chunks for about ``SHARE``
of that operation's latency, and reports the latency multiplied by
``REFERENCE_S / median(chunk times)`` over the chunks run just before and
just after it: as it would read with the host at the speed it had when the
benchmark was defined.  A set-up probe runs three chunks itself once its
set-up is done, so that they run on the CPU that ran the set-up.  The chunk
mixes the kinds of work the workloads do: interpreted Python, float
formatting, many numpy calls on small arrays and a few on large ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0135   # median chunk time over 10 minutes of runs when the benchmark was defined
SHARE = 0.12

_rng = np.random.default_rng(0)
_SMALL = _rng.random(41 * 41)
_LARGE = _rng.random((201 * 201, 4))
_FLOATS = _rng.random(3000).tolist()


def chunk() -> float:
    """Seconds one fixed chunk of work takes."""
    t0 = perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i % 7
    "\n".join(f"v {a:.9g} {b:.9g} {a * b:.9g}" for a, b in zip(_FLOATS, _FLOATS[::-1]))
    for _ in range(150):
        _SMALL * 2.0 + np.sin(_SMALL)
    for _ in range(3):
        np.einsum("ij,ij->i", _LARGE, _LARGE)
        np.sqrt(_LARGE) * _LARGE
    return perf_counter() - t0


def scale_of(chunks) -> float:
    """Factor that turns a time measured next to ``chunks`` into reference time."""
    return REFERENCE_S / statistics.median(chunks)


class Speed:
    """Chunk times sampled over a run."""

    def __init__(self):
        chunk()   # first calls into numpy pay one-off costs
        self.before = [chunk() for _ in range(3)]
        self.samples: list[list[float]] = []   # the chunks after each latency

    def scale(self, latency: float) -> float:
        """Factor that turns ``latency``, just measured, into reference time.

        Runs chunks for about ``SHARE`` of ``latency``, and at least one, and
        returns ``REFERENCE_S`` over the median of these and of the chunks
        run just before the latency was measured, so that the host's speed
        on both sides of it counts.  A first chunk, not counted, brings the
        chunk's data back into the caches, so that what the program left
        there does not count.
        """
        t0 = perf_counter()
        chunk()
        now = []
        while True:
            now.append(chunk())
            if perf_counter() - t0 >= SHARE * latency:
                break
        factor = scale_of(self.before + now)
        self.before = now
        self.samples.append(now)
        return factor
