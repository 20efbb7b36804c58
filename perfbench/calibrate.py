"""Fixed stdlib-only reference work that measures the host's current speed.

Usage: calibrate.py

The benchmark runs this in a fresh interpreter next to every timed acqsim
child.  It uses no acqsim code, so a change to the package cannot move
its time; only the host can.  The work resembles the simulator's: an
event heap, exact ``Fraction`` arithmetic, seeded random draws, dict
updates and a JSON dump.  It prints a digest of its result, which is
the same on every run.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import sys
from fractions import Fraction

STEPS = 60_000


def work() -> str:
    rng = random.Random(7)
    heap: list = []
    total = Fraction(0)
    table: dict = {}
    for i in range(STEPS):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            heapq.heappop(heap)
        if i % 8 == 0:
            total += Fraction(i % 97, 1 + i % 13)
        table[i % 4096] = rng.gauss(0.0, 1.0)
    text = json.dumps([table, str(total), heap], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    print(work())
    sys.exit(0)
