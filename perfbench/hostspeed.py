"""Host-speed normalization of measured times.

The machines this benchmark runs on are shared, and their speed drifts by
a quarter or more over tens of seconds (other tenants, frequency changes).
The drift moves every pure-Python workload alike, so the benchmark times
a fixed pure-Python calibration loop between operations and rescales each
operation's time by how slow the calibration ran at that moment:

    reference time = measured time * reference loop time / loop time now

Reported times are therefore what the operation would take on a host that
runs the calibration loop in its reference time.  The loop shares no code
with foleq, so a change to the program moves the operation times and not
the calibration.  Work that spends much of its time in small numpy calls
(the trainer) drifts differently from pure Python, so its calibration adds
a numpy loop.  Raw wall times are printed alongside.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import numpy as np

# The calibration loops' typical durations on the reference host
# (a 2-CPU Intel Xeon virtual machine, Python 3.11, numpy 2.4).
REFERENCE_NS = 300_000
NUMPY_REFERENCE_NS = 350_000
SEGMENT_NS = 25_000_000
_SAMPLE_RUNS = 5
_WORDS = (("kitten sitting on", "sitting kitten off"), ("formula tree walk", "tree formula talk"))
_MATRIX = np.arange(144, dtype=float).reshape(12, 12)


def _loop() -> int:
    """Edit distances plus dictionary and string churn: the kinds of work
    the program's hot paths do, written independently of them."""
    total = 0
    for a, b in _WORDS:
        previous = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            current = [i]
            for j, cb in enumerate(b, 1):
                current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
            previous = current
        total += previous[-1]
    table = {}
    for i in range(300):
        table[f"k{i}"] = (i, str(i))
    return total + len(table)


def _numpy_loop() -> float:
    """Row-wise log-softmax on a small matrix, many times: small-array numpy
    calls like the trainer's."""
    total = 0.0
    for _ in range(30):
        z = _MATRIX - _MATRIX.max(axis=-1, keepdims=True)
        total += float((z - np.log(np.exp(z).sum(axis=-1, keepdims=True))).sum())
    return total


def calibrate(with_numpy: bool = False) -> float:
    """Median duration of the calibration loop right now, in ns."""
    samples = []
    for _ in range(_SAMPLE_RUNS):
        start = perf_counter_ns()
        _loop()
        if with_numpy:
            _numpy_loop()
        samples.append(perf_counter_ns() - start)
    return statistics.median(samples)


class Clock:
    """Collects operation times and rescales them to the reference host.

    Operations are grouped into segments of about ``SEGMENT_NS`` measured
    time; each segment is rescaled by the mean of the calibrations taken
    just before and just after it.  ``with_numpy`` adds the numpy loop to
    the calibration."""

    def __init__(self, with_numpy: bool = False):
        self.ref_ns: list[float] = []
        self._pending: list[int] = []
        self._pending_ns = 0
        self._with_numpy = with_numpy
        self._reference = REFERENCE_NS + (NUMPY_REFERENCE_NS if with_numpy else 0)
        self._last = calibrate(with_numpy)

    def add(self, ns: int) -> None:
        self._pending.append(ns)
        self._pending_ns += ns
        if self._pending_ns >= SEGMENT_NS:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        now = calibrate(self._with_numpy)
        scale = self._reference / ((self._last + now) / 2)
        self.ref_ns.extend(ns * scale for ns in self._pending)
        self._pending = []
        self._pending_ns = 0
        self._last = now


def timed_reference(action) -> tuple[float, float]:
    """Run ``action()`` between two calibrations; return its raw seconds
    and its reference-host seconds.  ``action`` returns its own raw
    duration in seconds."""
    before = calibrate()
    raw = action()
    after = calibrate()
    return raw, raw * REFERENCE_NS / ((before + after) / 2)
