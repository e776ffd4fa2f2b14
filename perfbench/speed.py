"""The speed the shared host gives this process, read off a fixed reference.

On a shared machine the same CPU-bound Python code runs up to twice as
slowly for seconds to minutes at a time, in CPU time as in wall time: other
tenants load the caches and the memory bus this CPU shares.  Such a stretch
can cover a whole run, so no statistic over one run's own samples removes it.

The benchmark therefore runs a fixed reference computation after every op,
outside the op's latency, and states each op's CPU time at reference speed:
scaled by REFERENCE_S over the median reference time measured around the op.
The reference is a subset dynamic program for the treewidth of a fixed
9-vertex graph, over dicts, sets and frozensets -- the kind of work flatwall
does -- so the host slows it as it slows flatwall.  It belongs to the
benchmark, not to flatwall, so no change to flatwall moves it; it runs with
the garbage collector off, so flatwall's heap does not move it either.
"""

import gc
import random
import statistics
from itertools import combinations
from time import process_time

REFERENCE_S = 0.010  # the reference's CPU time at reference speed
WINDOW = 4           # reference samples taken on either side of an op


class Reference:
    """One call runs the reference once and returns its CPU seconds."""

    N = 9

    def __init__(self):
        rng = random.Random(0)
        pairs = list(combinations(range(self.N), 2))
        self.adj = {v: set() for v in range(self.N)}
        for a, b in rng.sample(pairs, 14):
            self.adj[a].add(b)
            self.adj[b].add(a)
        self.treewidth = self._treewidth()

    def _outside(self, s, v):
        """Vertices outside s + {v} reached from v through s."""
        seen, stack, out = {v}, [v], set()
        while stack:
            for w in self.adj[stack.pop()]:
                if w in seen:
                    continue
                seen.add(w)
                if w in s:
                    stack.append(w)
                else:
                    out.add(w)
        return len(out)

    def _treewidth(self):
        tw = {frozenset(): -1}
        for size in range(1, self.N + 1):
            for s in map(frozenset, combinations(range(self.N), size)):
                tw[s] = min(max(tw[s - {v}], self._outside(s - {v}, v)) for v in s)
        return tw[frozenset(range(self.N))]

    def __call__(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = process_time()
            result = self._treewidth()
            elapsed = process_time() - t0
        finally:
            if enabled:
                gc.enable()
        if result != self.treewidth:
            raise RuntimeError("reference computation gave %r, not %r"
                               % (result, self.treewidth))
        return elapsed


def at_reference_speed(samples, reference):
    """samples[i] (CPU seconds or None) times REFERENCE_S over the median of
    reference[i - WINDOW : i + WINDOW + 1]; both lists come from one pass."""
    out = []
    for i, x in enumerate(samples):
        if x is None:
            continue
        around = reference[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(x * REFERENCE_S / statistics.median(around))
    return out
