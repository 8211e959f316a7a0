"""Per-interval encounter graphs: binomial sampling.

Each interval's communication reach is one draw of a binomial random
graph G(n, p): every unordered pair of robots meets independently with
probability p.  Intervals are sampled independently; callers pass a
seeded ``numpy.random.Generator`` (PCG64) so every graph is reproducible
from a run's root seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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

    @cached_property
    def ordered_edges(self) -> tuple[tuple[int, int], ...]:
        """The edges in ascending (u, v) order, the order the simulator
        runs its exchanges in."""
        return tuple(sorted(self.edges))


@lru_cache(maxsize=1)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The C(n, 2) pairs (u, v), 1 <= u < v <= n, as two id columns in
    ascending pair order, in the smallest integer type that holds n; kept
    for the last n only, as a run samples every interval at one n."""
    u, v = ((ids + 1).astype(np.min_scalar_type(n)) for ids in np.triu_indices(n, k=1))
    u.flags.writeable = v.flags.writeable = False
    return u, v


def gen_interval_graph(n: int, p: float, rng: np.random.Generator, interval: int = 1) -> EncounterGraph:
    """Sample G(n, p): each of the C(n, 2) pairs joined independently with
    probability p.  The pairs are drawn in ascending order, so the graph
    comes with its ``ordered_edges`` already made."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    u, v = _pairs(n)
    mask = rng.random(u.size) < p
    ordered = tuple(zip(u[mask].tolist(), v[mask].tolist()))
    graph = EncounterGraph(n=n, interval=interval, edges=frozenset(ordered))
    graph.__dict__["ordered_edges"] = ordered
    return graph
