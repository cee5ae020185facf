"""Machine-speed probe used to express times at a fixed reference speed.

On a shared virtual machine the speed of identical work drifts by up to
a factor of two over seconds to minutes, because of load from outside
the machine. The probe is a fixed pure-Python job of the same kind as a
build (small tuples, recursion, string building, dict inserts). Timing
it right before and after a piece of work tells how fast the processor
ran meanwhile; scaling the work's time by NOMINAL_PROBE_S / probe time
gives the time it would have taken at reference speed.
"""

from __future__ import annotations

import random
import time

#: Probe time defining the reference speed: the probe's time on an
#: unloaded 2-vCPU Intel Xeon virtual machine with Python 3.11.7.
NOMINAL_PROBE_S = 0.015


def _tree(rng: random.Random, depth: int):
    if depth == 0:
        return rng.randrange(100)
    return (rng.choice("abc"), _tree(rng, depth - 1), _tree(rng, depth - 1))


def _show(t) -> str:
    if isinstance(t, int):
        return str(t)
    return "(" + _show(t[1]) + t[0] + _show(t[2]) + ")"


def probe() -> float:
    """Seconds the fixed job takes now."""
    start = time.perf_counter()
    rng = random.Random(1)
    seen: dict[str, int] = {}
    for _ in range(60):
        key = _show(_tree(rng, 8))
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work bracketed by probes ``before`` and ``after``,
    expressed at reference speed."""
    return seconds * NOMINAL_PROBE_S * 2 / (before + after)
