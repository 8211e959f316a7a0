"""Per-interval encounter graphs: binomial sampling.

Each interval's communication reach is one draw of a binomial random
graph G(n, p): every unordered pair of robots meets independently with
probability p.  Intervals are sampled independently; callers pass a
seeded ``numpy.random.Generator`` (PCG64) so every graph is reproducible
from a run's root seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EncounterGraph:
    """Who met whom during one interval; vertices are robot ids 1..n."""

    n: int
    interval: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u}, {v}) is not a normalized pair within 1..{self.n}")


def gen_interval_graph(n: int, p: float, rng: np.random.Generator, interval: int = 1) -> EncounterGraph:
    """Sample G(n, p): each of the C(n, 2) pairs joined independently with probability p."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    edges = frozenset(zip((iu[mask] + 1).tolist(), (ju[mask] + 1).tolist()))
    return EncounterGraph(n=n, interval=interval, edges=edges)
