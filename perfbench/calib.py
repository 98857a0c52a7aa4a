"""Machine-speed calibration.

A shared virtual machine runs the same code up to a third faster or
slower in spells of seconds to minutes, longer than a run; the slowdown
shows in CPU time as well as in wall time.  No
statistic of a single run's own latencies removes it.  ``speed_factor``
times a fixed piece of pure-Python permutation-group work (closure of
S7 from two generators, then the cyclic subgroups of 300 of its
elements: tuples, sets, frozensets and dicts, the kind of work the
package does) and returns ``REF_S`` over that time, raised to an
elasticity.  The runner calls it next to each operation or block of
operations and multiplies the measured time by it, so times are
reported at a fixed machine speed: the speed at which this work takes
``REF_S``.

The elasticity is the share of the work's change in speed that the
measured code follows.  Library calls in the runner's own process
follow it whole (1).  A CLI child follows about 0.8 of it, per op, on
the reference machine: its start-up, imports and file reads slow down
less than pure-Python work, and scaled by the whole factor a run in a
slow spell read up to a quarter fast.

The work does not touch the package, so a change to the program moves
the scaled times exactly as it moves the measured ones.  The garbage
collector is off while it runs, so the size of the program's heap does
not enter it.
"""

import gc
import time

REF_S = 0.020   # seconds the work takes at the reference speed


def _compose(p: tuple, q: tuple) -> tuple:
    return tuple(p[i] for i in q)


def _work() -> int:
    ident = tuple(range(7))
    gens = ((1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6))
    elems, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _compose(g, x)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    cyclic = set()
    for x in sorted(elems)[:300]:
        c, y = {ident}, x
        while y != ident:
            c.add(y)
            y = _compose(x, y)
        cyclic.add(frozenset(c))
    return len(elems) + len(cyclic)


def speed_factor(elasticity: float = 1.0) -> float:
    """REF_S over the time the fixed work takes now, to the power
    ``elasticity``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return (REF_S / (time.perf_counter() - t0)) ** elasticity
    finally:
        if enabled:
            gc.enable()
