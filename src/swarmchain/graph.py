"""Per-interval encounter graphs: binomial sampling.

Each interval's communication reach is one draw of a binomial random
graph G(n, p): every unordered pair of robots meets independently with
probability p.  Intervals are sampled independently; callers pass a
seeded ``numpy.random.Generator`` (PCG64) so every graph is reproducible
from a run's root seed.  A graph's edges are one tuple of pairs (u, v),
1 <= u < v <= n, in strictly ascending order: the order the simulator
runs its exchanges in and the trace stores them in.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import lt

import numpy as np


@dataclass(frozen=True)
class EncounterGraph:
    """Who met whom during one interval; vertices are robot ids 1..n and
    ``edges`` holds each meeting pair once, strictly ascending.  Any other
    order is refused, not sorted."""

    n: int
    interval: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        edges = self.edges
        if not all(map(lt, edges, edges[1:])):  # one C-level pass
            before, after = next((x, y) for x, y in zip(edges, edges[1:]) if not x < y)
            raise ValueError(f"edge {after} after {before}: not strictly ascending")
        for u, v in edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u}, {v}) is not a normalized pair within 1..{self.n}")


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
    probability p, drawn in ascending pair order."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    u, v = _pairs(n)
    mask = rng.random(u.size) < p
    return EncounterGraph(n=n, interval=interval, edges=tuple(zip(u[mask].tolist(), v[mask].tolist())))
