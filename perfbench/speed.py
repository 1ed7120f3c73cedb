"""Host-speed calibration for the timed metrics.

The shared host this benchmark was built on changes speed by up to a factor
of two over seconds to minutes: over 150 s, the median of each six
consecutive `degree` calls on the same 1000/5000 theories ranged from 384 to
723 ms.  The timed metrics are therefore reported at a reference host speed.
Every half second of the loop, and around every set-up repetition, the
benchmark times a fixed calibration job: its own stdlib least-model
iteration (`gen.least_model`) on a pinned 200/1000 product theory.  That job
shares no code with `rfal`, so a change to `rfal` moves the scaled times in
the same proportion as the raw ones, while a slower or faster host moves the
calibration with it.  A time measured between calibration samples `a` and
`b` is scaled by `REFERENCE_S / mean(a, b)`.  The raw figures are printed
too.
"""

from __future__ import annotations

import random
from time import perf_counter

import gen

CAL_SEED = 20150226
CAL_EVERY_S = 0.5
# About the calibration job's median time on the 2-vCPU Xeon host the
# benchmark was built on (64-68 ms over 20 runs); scaled times read as
# seconds at that speed.
REFERENCE_S = 0.065


class Speed:
    """Calibration samples taken through a run, in order."""

    def __init__(self):
        rules, levels = gen.layered_rules(random.Random(CAL_SEED), 200, 1000, 6)
        self.job = (gen.PROD, rules, {v: gen.ONE for v in levels[0]})
        self.samples: list[float] = []
        self.last = 0.0
        self._time()                     # warm-up, not kept

    def _time(self) -> float:
        start = perf_counter()
        gen.least_model(*self.job)
        self.last = perf_counter()
        return self.last - start

    def sample(self) -> int:
        """Take a calibration sample; returns its index."""
        self.samples.append(self._time())
        return len(self.samples) - 1

    def due(self) -> bool:
        return perf_counter() - self.last >= CAL_EVERY_S

    def scale(self, i: int) -> float:
        """Factor for a time measured between samples i and i + 1."""
        return REFERENCE_S / ((self.samples[i] + self.samples[i + 1]) / 2)
