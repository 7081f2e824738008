"""Host-speed probe: converts measured seconds into reference seconds.

On a shared host the CPU speed a process gets can change by half for
seconds to minutes at a time, and CPU time moves with wall time, so a
slower pass is not a slower program. While a pass runs, a SIGALRM
handler times a fixed pure-Python loop, ``_loop``, every PERIOD_S
seconds of wall time. The mean of REFERENCE_S / sample over the pass is
its speed factor. Seconds measured in the pass, less the probe's own
time, times that factor are reference seconds: the time the pass would
take on a host that runs the loop in REFERENCE_S. Short spans such as
set-up are scaled by loops timed just before them instead.
"""

from __future__ import annotations

import random
import signal
import statistics
from collections import deque
from time import perf_counter, process_time

PERIOD_S = 0.1
REFERENCE_S = 0.0015

_rng = random.Random(0)
_ROWS = [tuple(_rng.randrange(1 << 20) for _ in range(8)) for _ in range(4096)]
_TABLE = list(range(256))
_SIDE = 6
_GRID_UPPER = [
    [y for y in ((i + 1) * _SIDE + j if i + 1 < _SIDE else None,
                 i * _SIDE + j + 1 if j + 1 < _SIDE else None) if y is not None]
    for i in range(_SIDE) for j in range(_SIDE)
]


def _table_work() -> int:
    """Integer and bit arithmetic over a small table, then tuple indexing,
    dict updates and a sort over a table too large for first-level caches."""
    acc = 0
    table = _TABLE
    for i in range(5_000):
        acc = (acc + table[i & 255]) ^ (i << 1)
    rows = _ROWS
    seen: dict = {}
    for i in range(375):
        row = rows[(i * 2654435761) & 4095]
        key = (row[i & 7], acc & 1023)
        seen[key] = seen.get(key, 0) + 1
        acc = (acc ^ row[(i + 3) & 7]) + len(seen)
    ordered = sorted(rows[(acc + k * 97) & 4095] for k in range(50))
    return acc + ordered[0][0]


def _lattice_work() -> int:
    """A frozen miniature of slimfork's per-diagram work on a fixed 6 x 6
    grid: reachability masks, meet and join tables, one congruence closure
    by union-find, and a sorted signature."""
    n, upper = len(_GRID_UPPER), _GRID_UPPER
    up = [0] * n
    for x in reversed(range(n)):
        mask = 1 << x
        for y in upper[x]:
            mask |= up[y]
        up[x] = mask
    down = [0] * n
    for x in range(n):
        for y in range(n):
            if up[x] >> y & 1:
                down[y] |= 1 << x
    up_index = {m: i for i, m in enumerate(up)}
    down_index = {m: i for i, m in enumerate(down)}
    join = [[up_index[up[x] & up[y]] for y in range(n)] for x in range(n)]
    meet = [[down_index[down[x] & down[y]] for y in range(n)] for x in range(n)]
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    pending = deque([(0, 1)])
    while pending:
        a, b = pending.popleft()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        ja, jb, ma, mb = join[a], join[b], meet[a], meet[b]
        for z in range(n):
            if find(ja[z]) != find(jb[z]):
                pending.append((ja[z], jb[z]))
            if find(ma[z]) != find(mb[z]):
                pending.append((ma[z], mb[z]))
    signature = sorted((up[x].bit_count(), len(upper[x]), tuple(sorted(meet[x])))
                       for x in range(n))
    return len(signature) + find(n - 1)


def _loop() -> int:
    """The probe's fixed work. The table part alone slowed less than
    slimfork in slow spells; the lattice part tracks it more closely."""
    return _table_work() + _lattice_work() + _lattice_work()


def loop_seconds() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the probe loop."""
    wall, cpu = perf_counter(), process_time()
    _loop()
    return perf_counter() - wall, process_time() - cpu


def factor_now() -> float:
    """Speed factor from the median of three loops run back to back."""
    return REFERENCE_S / statistics.median(loop_seconds()[0] for _ in range(3))


class Probe:
    """Samples host speed from a SIGALRM handler while the block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.factor = 1.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        wall, cpu = loop_seconds()
        self.samples.append(wall)
        self.wall_s += wall
        self.cpu_s += cpu

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # Mean speed relative to reference over the block.
        if self.samples:
            self.factor = statistics.fmean(REFERENCE_S / s for s in self.samples)
        else:
            self.factor = factor_now()
