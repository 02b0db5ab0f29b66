"""Machine-speed probe: a fixed stand-in job timed throughout each run.

On a shared machine the same work runs up to 1.7 times slower for seconds
or minutes at a time while neighbours load the host, and the speed swings
by a tenth or more within a second.  Each run therefore times ``kernel``, a
small CLI-shaped job built from the standard library alone, once per
``SAMPLE_EVERY_S`` of measured work, between jobs.  A job's time is scaled
by (REFERENCE_S / median kernel time around it) ** ELASTICITY, where
"around it" is the LOCAL_SAMPLES kernel samples taken before the job ended
and as many after.  The kernel uses no momentkit code, so a change to
momentkit moves the scaled times exactly as it moves the raw ones.

One kernel median over the whole run tracked the jobs worse: over ten
seeds on three workloads it left spreads of up to 0.2 where the local
median left at most 0.12.  Kernel samples taken right next to a job track it closely:
the ratio of a job's time to the kernel's stayed within 3 to 7% from one
process to the next while the kernel's own time ranged over a factor of 1.6.

Every time the benchmark measures is CPU time from ``clock``, not wall
time.  A job of a few milliseconds that the scheduler preempts, or whose
virtual CPU the host steals, takes several milliseconds longer on the wall
clock and not at all longer in CPU time (Linux's steal-time accounting keeps
stolen time out of a task's runtime).  Preemption hits short jobs all or
nothing: with a process that ran in short bursts on the same core, the wall
median of gkm-degree's jobs rose by 40% while their CPU median and the
median kernel time, over many samples, barely moved.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
from fractions import Fraction
from itertools import combinations
from time import process_time

# median kernel time on the machine the baseline was recorded on; scaled
# times read as times on that machine
REFERENCE_S = 3.1e-3
# How far the jobs follow the kernel when the machine's speed changes, in
# log terms.  Fitted over 21 runs of three workloads with one seed each, in
# which the kernel's median ranged over a factor of 1.7, the values were
# 0.56 to 1.0; with local scaling, 0.8 left less spread than 1 on
# catalog-sweep and lattice-dilate and about the same on gkm-degree.
ELASTICITY = 0.8
SAMPLE_EVERY_S = 0.05
LOCAL_SAMPLES = 10
START_SAMPLES = 10

_PARSER = argparse.ArgumentParser(prog="kernel")
_PARSER.add_argument("polytope")
_PARSER.add_argument("--seed", type=int, default=0)
_PARSER.add_argument("--json", action="store_true")
# a 3-D box cut by two planes, as inward half-spaces <n, x> >= b
_ROWS = (((1, 0, 0), 0), ((-1, 0, 0), -3), ((0, 1, 0), 0), ((0, -1, 0), -3),
         ((0, 0, 1), 0), ((0, 0, -1), -3), ((-1, -2, -1), -7))


def kernel() -> str:
    """Parse arguments, find vertices by exact solves over constraint
    triples, and render them as JSON."""
    args = _PARSER.parse_args(["box:3", "--seed", "7", "--json"])
    vertices = []
    for triple in combinations(_ROWS, 3):
        m = [[Fraction(c) for c in n] + [Fraction(b)] for n, b in triple]
        for c in range(3):
            p = next((r for r in range(c, 3) if m[r][c]), None)
            if p is None:
                break
            m[c], m[p] = m[p], m[c]
            inv = 1 / m[c][c]
            m[c] = [x * inv for x in m[c]]
            for r in range(3):
                if r != c and m[r][c]:
                    f = m[r][c]
                    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
        else:
            x = tuple(row[3] for row in m)
            if all(sum(a * b for a, b in zip(n, x)) >= b for n, b in _ROWS):
                vertices.append([str(c) for c in x])
    return json.dumps({"args": vars(args), "vertices": sorted(vertices)})


def clock() -> float:
    """CPU seconds used so far by this process, all its threads, and the
    child processes it has waited for.

    The jobs run in-process, single-threaded, with no I/O but reading small
    input files, so a job's CPU time is its wall time less the time the CPU
    was given to others.  Children count, so work moved into a subprocess
    still shows.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class SpeedProbe:
    """Kernel times spread evenly over the measured work of one run."""

    def __init__(self):
        self.took: list[float] = []
        self._due = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = clock()
            kernel()
            self.took.append(clock() - t0)

    def after(self, busy_s: float) -> None:
        """Account ``busy_s`` of measured work; sample once per
        SAMPLE_EVERY_S of it."""
        self._due += busy_s
        n = int(self._due / SAMPLE_EVERY_S)
        self._due -= n * SAMPLE_EVERY_S
        self.sample(n)

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Multiply a measured time by this to express it at reference speed;
        ``first`` and ``last`` pick the samples of one stretch of the run."""
        took = self.took[first:last] or self.took
        return (REFERENCE_S / statistics.median(took)) ** ELASTICITY

    def factor_at(self, mark: int) -> float:
        """``factor`` for a job that ended when ``mark`` samples had been
        taken: from the LOCAL_SAMPLES samples before it and as many after."""
        return self.factor(max(0, mark - LOCAL_SAMPLES), mark + LOCAL_SAMPLES)
