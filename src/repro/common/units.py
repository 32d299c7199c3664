"""Units and conversions used across the simulation.

Conventions (documented once here, relied on everywhere):

* **Time** is measured in *milliseconds* as ``float``.  The paper reports
  latencies between ~1 ms and ~10 s, so milliseconds keep numbers readable.
* **CPU work** is measured in *core-milliseconds*: the amount of computation
  one core completes in one millisecond.  A task with 500 core-ms of work
  takes 500 ms on a dedicated core and 1000 ms when it can only get half a
  core on average.
* **Memory** is measured in *mebibytes (MB)* as ``float``.

Helper constants and converters below exist so that call-sites never contain
bare magic numbers like ``0.2 * 1000``.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------

SECOND: float = 1000.0
MINUTE: float = 60.0 * SECOND
HOUR: float = 60.0 * MINUTE


def seconds(value: float) -> float:
    """Convert *value* seconds into the library's millisecond time unit."""
    return value * SECOND


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

GB: float = 1024.0


def gigabytes(value: float) -> float:
    """Convert *value* GiB into the library's MB memory unit."""
    return value * GB


# ---------------------------------------------------------------------------
# Small numeric helpers
# ---------------------------------------------------------------------------

#: Tolerance used when comparing simulated times and work amounts.  The DES
#: kernel performs floating-point arithmetic on times; comparisons must be
#: tolerant to representation error but tight enough not to mask real bugs.
TIME_EPSILON: float = 1e-9


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp *value* into the closed interval [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty interval: [{lo}, {hi}]")
    return max(lo, min(hi, value))
