"""Machine-speed reference for scaling op latencies.

On a shared machine other tenants can slow this process by up to 2x for
seconds at a time.  A fixed routine that does the same kinds of work as
the CLI (argparse, exact Fraction arithmetic, JSON rendering) is timed in
CPU time, like the ops, between ops; each op's latency is scaled by
REFERENCE_S over the mean of the two reference timings that bracket it.  The routine is benchmark
code, so a change to the program moves the op times and never the
reference.  Scaled figures are milliseconds at the speed at which the
routine takes REFERENCE_S, about its fastest time on a 2-vCPU Intel Xeon
VM under CPython 3.11.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import time
from fractions import Fraction

REFERENCE_S = 0.00065
EVERY_S = 0.05          # time the routine at most this often


def routine() -> int:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "table", "csv"), default="json")
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command")
    for name in ("alpha", "beta", "gamma"):
        p = sub.add_parser(name, parents=[output])
        for opt in ("--dim", "--rank", "--degree"):
            p.add_argument(opt, type=int)
    args = parser.parse_args(["beta", "--dim", "3", "--degree", "12"])
    rows = []
    acc = Fraction(1)
    for i in range(1, 25):
        acc = acc * (Fraction(args.degree, args.dim) + i) / i
        rows.append({"k": i, "value": f"{acc.numerator}/{acc.denominator}"})
    return len(json.dumps({"rows": rows}, sort_keys=True, indent=2))


class Speed:
    def __init__(self):
        self.ends: list[float] = []
        self.times: list[float] = []

    def measure(self) -> None:
        """Time the routine: the fastest of three back-to-back runs, so a
        cache left cold by the previous op does not count as a slow machine."""
        gc.disable()
        fastest = float("inf")
        for _ in range(3):
            c0 = time.thread_time()
            routine()
            fastest = min(fastest, time.thread_time() - c0)
        gc.enable()
        self.ends.append(time.perf_counter())
        self.times.append(fastest)

    def maybe(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= EVERY_S:
            self.measure()

    def scale(self, starts, seconds) -> list[float]:
        """Latencies of calls that began at starts, scaled to reference speed."""
        out = []
        for start, dt in zip(starts, seconds):
            j = bisect.bisect(self.ends, start)
            before = self.times[j - 1]
            after = self.times[j] if j < len(self.times) else before
            out.append(dt * REFERENCE_S * 2 / (before + after))
        return out
