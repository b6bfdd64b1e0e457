"""The reference: a fixed piece of work that uses nothing from phyenergy.

Operations are timed next to it, and their times are reported in units
of it, because the host's speed drifts (see README.md).  It is a few ms
of the interpreter work the package does, exact fractions, enum-keyed
dicts and formatting, so that host contention slows both alike; no
change to the package can move it.

usage: python3 perfbench/reference.py [TIMES]   (the cold-process reference)
"""

import enum
import sys
import time
from fractions import Fraction


class _Kind(enum.Enum):
    A = 1
    B = 2
    C = 3
    D = 4


_KINDS = list(_Kind)


def reference_work() -> str:
    acc = Fraction(0)
    counts: dict = {}
    for i in range(600):
        key = (_KINDS[i % 4], i % 7)
        counts[key] = counts.get(key, 0) + i
        acc += Fraction(i, 3 + i % 11)
    return f"{acc}:" + ",".join(
        f"{k.name}{c}={n}" for (k, c), n in
        sorted(counts.items(), key=lambda kv: (kv[0][0].value, kv[0][1])))


def time_reference(times: int = 1) -> float:
    """Mean seconds of ``times`` back-to-back runs."""
    t0 = time.perf_counter()
    for _ in range(times):
        reference_work()
    return (time.perf_counter() - t0) / times


if __name__ == "__main__":
    time_reference(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
