"""Machine-speed probe: scales measured times to a fixed reference speed.

The benchmark's machine is a few cores of a shared host whose speed swings
by 20-50% over seconds to minutes, and both cores slow down together, so the
same job run twice a minute apart can differ by a third.  To keep the
end-to-end times comparable between runs, a short fixed probe, written here
and independent of ``altrank``, runs between jobs (never during one), and each
job's time is divided by the machine's speed factor around it: the median
of the probes just before and just after the job and their neighbours, each
relative to the probe's nominal time.  A faster or slower program moves the
scaled times exactly as it moves the raw ones; a slower or faster machine
moves the probe too, and cancels out.

The probe has two parts, and its speed factor is the geometric mean of
theirs.  The ``python`` part is interpreter-level work of the kinds the
program does: arithmetic on ``Fraction``s with dict updates, and Gaussian
elimination mod p on a list of lists.  The ``numpy`` part eliminates a stack
of thousands of small matrices in a few vectorised steps, as the engine does.
The host's swings hit the two kinds of work unequally, and by different
amounts at different times: in interleaved trials, either part alone
overcorrected some workload in some window (a job slowed by 15% while the
``python`` part slowed by 40%), while their geometric mean was close to the
best single part on every workload tried.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

REPEATS = 3  # each part of a probe is the median of this many units, to drop one-off spikes
INTERVAL_S = 0.3  # a probe runs before a job once this long has passed since the last

_MATRIX = [[(i * 7 + j * 3 + i * j) % 7 for j in range(9)] for i in range(9)]


def _eliminate(p: int = 7) -> None:
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1


def _python_unit() -> float:
    t0 = perf_counter()
    acc, counts = Fraction(0), {}
    for i in range(1, 800):
        acc += Fraction(i % 97, i % 13 + 1)
        counts[i % 101] = counts.get(i % 101, 0) + i * i % 7
    for _ in range(12):
        _eliminate()
    return perf_counter() - t0


_STACK = np.random.default_rng(0).integers(0, 7, size=(8000, 5, 5))


def _numpy_unit() -> float:
    t0 = perf_counter()
    m = _STACK
    for c in range(m.shape[2]):
        m = (m - m[:, c:c + 1, c:c + 1] * m[:, c:c + 1, :]) % 7
    return perf_counter() - t0


# Each part's unit and its median time on the reference machine (2-core Xeon
# VM, Python 3.11, numpy 2.4); only the ratio of two runs' scaled times is
# meaningful.
PARTS = ((_python_unit, 0.003), (_numpy_unit, 0.012))


class SpeedProbe:
    """Speed factors (probe time over nominal; above 1 is a slow machine),
    sampled between jobs."""

    def __init__(self):
        self.factors: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Run the probe now; returns the index of the new sample."""
        factor = 1.0
        for unit, nominal_s in PARTS:
            factor *= statistics.median(unit() for _ in range(REPEATS)) / nominal_s
        self.factors.append(factor ** (1 / len(PARTS)))
        self._last = perf_counter()
        return len(self.factors) - 1

    def before_job(self) -> int:
        """Index of the sample that precedes the next job, probing if it is stale."""
        if perf_counter() - self._last >= INTERVAL_S:
            return self.sample()
        return len(self.factors) - 1

    def scale(self, raw_s: float, before: int, after: int) -> float:
        """``raw_s`` at reference speed, from the samples taken around it: the
        median of the samples just before and after it and their neighbours,
        so that one probe caught in a brief stall does not skew the time."""
        window = self.factors[max(0, before - 1):after + 2]
        return raw_s / statistics.median(window)
