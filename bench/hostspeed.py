"""Host speed probe.

A shared host runs this process at speeds that differ by up to about 2x,
in spells of a fraction of a second to minutes, with no steal time to show
for it: CPU time stretches with wall time. A run's own timings then move
with the share of slow spells it happened to get. To take that out, timed
work is split into segments (a conversion, an eval instance, a set-up),
each bracketed by a short fixed piece of work, the probe, and a segment's
CPU-bound time is scaled by ``REFERENCE_S`` over the mean of the probes at
its two ends. Scaled times read as on a host on which the probe takes
``REFERENCE_S``, about this host's fast spells. Time a segment spends
waiting on the benchmark's transport (a modelled remote endpoint) is not
CPU-bound and is not scaled; it counts as the modelled endpoint's latency.
"""

from __future__ import annotations

import gc
import json
import re
import time

REFERENCE_S = 0.00025  # the probe's duration on the nominal host
_BLOB = json.dumps({f"k{i}": [f"v{j}" for j in range(10)] for i in range(120)})
_WORD = re.compile(r"v\d+")
NO_WAITS = (0.0, 0.0)


def _reference() -> int:
    """JSON decoding and a regex scan. Of the probes tried, this one slows
    down most nearly in step with flowsra's conversions and eval passes, and
    its timings vary least between processes."""
    return len(json.loads(_BLOB)) + len(_WORD.findall(_BLOB))


def sample() -> float:
    """The probe's duration, with no garbage collection of other objects
    in it (what it allocates is freed on return)."""
    gc.disable()
    try:
        start = time.perf_counter()
        _reference()
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostSpeed:
    """A meter of scaled time. A segment runs from ``open`` (or a ``cut``)
    to ``close`` (or the next ``cut``); each is scaled by the probes taken at
    its two ends, and ``take`` returns the sum since the last ``take``.
    ``waits`` are the transport's running totals of time waited and of the
    modelled latency of those waits; within a segment, the time waited is
    replaced by its modelled latency, unscaled."""

    def __init__(self) -> None:
        self.total = 0.0
        self._open = False
        self._before = self._start = 0.0
        self._waits = NO_WAITS

    def open(self, waits: tuple[float, float] = NO_WAITS) -> None:
        self._before = sample()
        self._waits = waits
        self._start = time.perf_counter()
        self._open = True

    def close(self, waits: tuple[float, float] = NO_WAITS) -> None:
        """End the open segment, if any."""
        if not self._open:
            return
        seconds = time.perf_counter() - self._start
        after = sample()
        waited = waits[0] - self._waits[0]
        modelled = waits[1] - self._waits[1]
        factor = 2 * REFERENCE_S / (self._before + after)
        self.total += modelled + (seconds - waited) * factor
        self._before = after
        self._open = False

    def cut(self, waits: tuple[float, float] = NO_WAITS) -> None:
        """End the open segment and start the next one at once."""
        self.close(waits)
        self._waits = waits
        self._start = time.perf_counter()
        self._open = True

    def take(self) -> float:
        total, self.total = self.total, 0.0
        return total
