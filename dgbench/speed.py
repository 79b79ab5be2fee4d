"""Host-speed probe: a fixed pure-Python reference task timed next to the jobs.

The benchmark runs on shared hosts whose speed drifts by tens of percent in
phases of seconds to minutes, and every timed job drifts with it.  The runner
therefore times this reference task between jobs (at most every PROBE_EVERY_S
seconds) and reports each timing scaled by NOMINAL_S / t_ref, where t_ref is
the geometric mean of the reference times measured just before and just after
the timed work.  Scaled figures read as seconds on a host where the reference
takes NOMINAL_S.

The reference imports nothing from dgcat, so a change to dgcat moves a scaled
time by the same share as the raw one.  Its work is a mix of what dgcat's hot
paths do in pure Python: exact elimination over Q (Fraction) and over F_p
(int mod p), dict churn on tuple keys and a JSON round trip.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from fractions import Fraction

# A round figure near the median time of one reference() call on the host
# the seed baseline was measured on (2-vCPU Intel Xeon, Python 3.11.7), so
# scaled times there read close to raw ones.
NOMINAL_S = 0.005
PROBE_EVERY_S = 0.25
REPS = 3
P = 32003

_Q_ROWS = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(8)] for i in range(8)]
_P_ROWS = [[pow(7, 24 * i + j, 65537) % P for j in range(24)] for i in range(24)]
_DOC = json.dumps({"rows": [{"key": [i, i % 7, f"x{i % 13}"], "value": str(Fraction(i, 1 + i % 5))} for i in range(400)]})


def _rank(rows, div, sub):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = div(rows[i][col], rows[rank][col])
                rows[i] = [sub(a, f, b) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference():
    """The fixed task; its result never changes."""
    rq = _rank(_Q_ROWS, lambda a, b: a / b, lambda a, f, b: a - f * b)
    rp = _rank(_P_ROWS, lambda a, b: a * pow(b, P - 2, P) % P, lambda a, f, b: (a - f * b) % P)
    d = {}
    for i in range(2000):
        key = (i % 61, (i * 7) % 29, i % 3)
        d[key] = d.get(key, 0) + i
    doc = json.loads(_DOC)
    text = json.dumps(doc, sort_keys=True)
    return rq, rp, len(d), len(text)


def reference_s():
    """Median time of REPS reference() calls."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Scales raw timings by the reference probes measured around them.

    ``add`` queues one raw timing under a key; once PROBE_EVERY_S has passed
    since the last probe it probes again and returns the queued timings
    scaled, as (key, scaled seconds).  ``flush`` probes at once."""

    def __init__(self):
        self.factors = []
        self._pending = []
        self._last = reference_s()
        self._last_at = time.perf_counter()

    def add(self, key, raw_s):
        self._pending.append((key, raw_s))
        if time.perf_counter() - self._last_at >= PROBE_EVERY_S:
            return self.flush()
        return []

    def flush(self):
        now = reference_s()
        factor = NOMINAL_S / math.sqrt(self._last * now)
        self._last, self._last_at = now, time.perf_counter()
        out = [(key, raw * factor) for key, raw in self._pending]
        if self._pending:
            self.factors.append(factor)
        self._pending = []
        return out
