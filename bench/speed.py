"""Machine-speed reference for normalising measured times.

The machines this benchmark runs on change speed by 20-40% over seconds to
minutes (shared hosts), which is more than any bound worth gating on.  So
every timed stretch of work is bracketed by runs of a fixed reference
kernel, and a measured time ``t`` is reported as

    t * REF_NOMINAL_S / (mean reference time around the stretch)

that is, in seconds on a machine where the reference kernel takes
``REF_NOMINAL_S``.  The kernel is a frozen copy of the sparse product loop
charq's ``MultiPoly.__mul__`` runs (exponent tuples added with ``map``,
dict accumulation), on two fixed 45-term polynomials; it tracked the
machine's drift on charq's workloads far better than a plain dict loop did.
It is the benchmark's own code and does not import charq, so a change to
charq cannot change the reference.  The constant is fixed, so two commits
measured with the same benchmark compare as raw times would on a steady
machine.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

REF_NOMINAL_S = 0.005     # about the kernel's time on a 2-core VM, CPython 3.11
SEGMENT_S = 0.05          # case time between two reference runs


def _poly(rng: random.Random, terms: int) -> dict:
    out: dict = {}
    while len(out) < terms:
        out[tuple(rng.randrange(-2, 3) for _ in range(9))] = rng.randrange(1, 50)
    return out


_RNG = random.Random(5)
_LEFT, _RIGHT = _poly(_RNG, 45), _poly(_RNG, 45)


def _product() -> dict:
    out: dict = {}
    get = out.get
    for mb, cb in _RIGHT.items():
        for ma, ca in _LEFT.items():
            m = tuple(map(int.__add__, ma, mb))
            c = ca * cb
            s = get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def reference_s(repeats: int = 1) -> float:
    """Median time of ``repeats`` runs of the reference kernel."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _product()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class NormalisedClock:
    """Normalises timed items in segments of at least ``segment_s`` measured
    seconds, each against the reference runs just before and just after it."""

    def __init__(self, segment_s: float = SEGMENT_S, repeats: int = 1):
        self.segment_s = segment_s
        self.repeats = repeats
        self.last_ref = reference_s(repeats)
        self.pending: list[tuple[str, float]] = []
        self.pending_s = 0.0
        self.times: dict[str, float] = {}

    def add(self, key: str, seconds: float):
        self.pending.append((key, seconds))
        self.pending_s += seconds
        if self.pending_s >= self.segment_s:
            self.flush()

    def flush(self) -> dict[str, float]:
        """Close the open segment; returns normalised seconds by key."""
        if self.pending:
            ref = reference_s(self.repeats)
            scale = REF_NOMINAL_S / ((self.last_ref + ref) / 2)
            for key, seconds in self.pending:
                self.times[key] = self.times.get(key, 0.0) + seconds * scale
            self.pending = []
            self.pending_s = 0.0
            self.last_ref = ref
        return self.times
