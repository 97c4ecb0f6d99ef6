"""Lap timing of the untraced sweeps.

A solve or replay is timed as a run of laps: a stamp is taken on entry to
a function that the library calls once per unit of repeated work, so
every lap is one iteration, one certificate term or one sampler draw.  An
item's repeats do the same work lap by lap, so the fastest time of each
lap over the repeats is the program's cost with the least interference
from the rest of the machine.  A shared host slows the benchmark in
bursts of a few milliseconds to a few seconds; a whole solve rarely
escapes every burst, but a millisecond lap often does.

One wrapper call per lap adds about a microsecond to laps that take from
20 microseconds to a few milliseconds.  The traced sweep does not install
the hooks, so there a run is one lap.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from balm import diagnostics, solvers

# (module, attribute): ``run`` evaluates one KKT residual per iterate; the
# contraction ledger evaluates three metric quadratics per iteration and the
# gap check one per probe; the gap sampler tests one draw per call.
HOOKS = ((solvers, "kkt_residual"), (diagnostics, "h_quadratic"), (diagnostics, "_feasible"))


class Laps:
    def __init__(self):
        self._stamps = None

    def _stamping(self, original):
        clock = time.perf_counter

        def stamped(*args, **kwargs):
            if self._stamps is not None:
                self._stamps.append(clock())
            return original(*args, **kwargs)

        return stamped

    @contextmanager
    def installed(self):
        """Stamp every entry to the hooked functions; restore them on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in HOOKS]
        try:
            for mod, attr, original in saved:
                setattr(mod, attr, self._stamping(original))
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def start(self) -> None:
        self._stamps = [time.perf_counter()]

    def stop(self) -> np.ndarray:
        """The lap durations since ``start``; they sum to its wall time."""
        self._stamps.append(time.perf_counter())
        laps = np.diff(self._stamps)
        self._stamps = None
        return laps


def fastest(best: np.ndarray | None, laps: np.ndarray) -> np.ndarray:
    """Lap by lap, the faster of ``best`` (None at first) and ``laps``."""
    if best is None:
        return laps
    if best.shape != laps.shape:
        raise ValueError(f"lap count changed between repeats: {best.size} then {laps.size}")
    return np.minimum(best, laps)
