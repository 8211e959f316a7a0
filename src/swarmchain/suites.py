"""Seeded experiment suites and what they count, stated once.

Run i of a suite simulates its config at ``seed + i``.  Framing suites
count :func:`framed` robots and collusion suites :func:`flagged` pairs;
each caller computes only the measures it reports.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Iterator

from .detect import LocalView, collective_disappeared, detect_collusion
from .sim import SimConfig, SimTrace, run_simulation


def runs(config: SimConfig, count: int) -> Iterator[SimTrace]:
    """The traces of runs 0..count-1, run i at seed ``config.seed + i``."""
    for i in range(count):
        yield run_simulation(replace(config, seed=config.seed + i))


def framed(trace: SimTrace) -> frozenset[int]:
    """Robots outside the config's adversaries that the whole honest swarm
    marks disappeared within the config's delta."""
    return collective_disappeared(trace, trace.config.delta) - trace.config.adversary_ids()


def flagged(trace: SimTrace, epsilon: float) -> frozenset[tuple[int, int]]:
    """Pairs the central view flags as colluding at the config's delta."""
    suspects = detect_collusion(LocalView.central(trace), trace.config.delta, epsilon)
    return frozenset(pair for pair, _ in suspects)
