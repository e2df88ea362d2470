"""How fast the host runs Python right now, from a fixed reference loop.

On a shared host the speed of a core changes by a quarter or more within
seconds.  The benchmark times reference rounds right before and right after
each measured piece of work, one more round after it for every
``ROUND_EVERY_S`` the work took, and scales the work's time by
``NOMINAL_ROUND_S / (mean round time)``: seconds at the speed the host had
when the bounds were set.  The loop does the program's kind of work
(permutation products as image tuples, dict inserts) without calling the
program, so no change to the program can move it.
"""

import random
import time

# Median round time on an idle core of the 2-core host the bounds come from.
NOMINAL_ROUND_S = 0.0013
ROUND_EVERY_S = 0.05

_rng = random.Random(1)
_PERMS = []
for _ in range(8):
    _points = list(range(24))
    _rng.shuffle(_points)
    _PERMS.append(tuple(_points))


def reference_round() -> float:
    """Run the reference loop once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    seen = {}
    cur = _PERMS[0]
    for i in range(600):
        cur = tuple(map(cur.__getitem__, _PERMS[i & 7]))
        seen[cur] = i
    return time.perf_counter() - t0


def rounds_around(seconds: float, before: float) -> float:
    """Mean round time around ``seconds`` of work that followed a round
    taking ``before``; runs the rounds that follow the work."""
    after = [reference_round() for _ in range(1 + int(seconds / ROUND_EVERY_S))]
    return (before + sum(after)) / (1 + len(after))


def scaled(seconds: float, round_s: float) -> float:
    """``seconds`` of work scaled to the nominal host speed."""
    return seconds * NOMINAL_ROUND_S / round_s
