"""Sighting probabilities: the paper's closed form, the exact value, and estimators.

A robot R obtains a report of robot R' within a window of delta
intervals either by meeting R' directly, or by meeting some robot at
interval u that met R' at an earlier interval v < u (news is carried in
the intermediary's history, which covers everything up to u-1).

This event has an exact value.  The direct meeting and each of the n-2
intermediaries k use disjoint edges ((0, 1), and (0, k), (1, k)), so
they are independent, and k relays nothing unless R misses k in every
interval after k first met R':

    P(no report) = (1-p)**delta * [(1-p)**(delta-1) * (1 + (delta-1)*p)]**(n-2)

The paper's closed form (:func:`prob_no_report`) instead treats every
robot as having exactly the expected degree n*p, so it is an
approximation: at (n, p, delta) = (48, 0.17, 3) it overstates the
report probability by about +0.0085.  The Monte Carlo estimator and the
exhaustive enumeration oracle compute the same event on sampled and on
fully enumerated graph sequences; the estimator samples only the
2(n-2)+1 edges that touch R or R', so it costs O(trials * delta * n)
time and O(block) memory.  It splits the trials into one contiguous
part per usable CPU (at most four), each on its own thread, and the
parts share one budget of about ``_BLOCK_CELLS`` uniforms: each draws
into a reused buffer of its share (one trial if a trial is larger, and
then one part runs).  Each part jumps its stream to its first trial, so
every estimate is the same for any CPU count.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from itertools import combinations
from math import ceil, sqrt
from numbers import Real

import numpy as np

_MAX_ENUMERATION_SLOTS = 24
# Largest Monte Carlo trial count: a thousand times the CLI's default,
# about 100 s at (n, p, delta) = (48, .17, 3) on 2 CPUs.
MAX_MC_TRIALS = 10**8
_MC_CHUNK = 20_000
# Cells per Monte Carlo block: 1 MiB of float64 uniforms, which stays in
# cache; 2**16 to 2**18 cells measured best at (48, .17, 3) and (1000, .01, 3).
_BLOCK_CELLS = 1 << 17
# Fewest cells in one part's block, so at most 4 parts: below this, the
# interpreter time per block, which the GIL serialises, outgrows what a
# CPU adds.  20 000 trials at (48, .17, 3) on one thread took 27 ms in
# 2**17-cell blocks, 29 ms in 2**15, 35 ms in 2**14 and 62 ms in 2**12.
_PART_CELLS = 1 << 15
_EVENT_PASS = threading.Lock()


def _is_int(value: object) -> bool:
    # bool is an int subclass, but True is not a swarm size or a count.
    return isinstance(value, int) and not isinstance(value, bool)


def _check_p_delta(p: object, delta: object) -> None:
    """Refuse an edge probability ``p`` or a window ``delta`` that a
    :class:`ProbQuery` would refuse, naming the field."""
    if isinstance(p, bool) or not isinstance(p, Real) or not 0.0 <= p <= 1.0:
        raise ValueError(f"p: edge probability must be a real in [0, 1], got {p!r}")
    if not _is_int(delta) or delta < 1:
        raise ValueError(f"delta: window must be an integer >= 1 intervals, got {delta!r}")


class InfeasibleError(ValueError):
    """Raised when an instance is too large to enumerate exhaustively."""


@dataclass(frozen=True)
class ProbQuery:
    """Parameters of one sighting-probability question."""

    n: int
    p: float
    delta: int

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 2:
            raise ValueError(f"n: need an integer of at least 2 robots, got {self.n!r}")
        _check_p_delta(self.p, self.delta)


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo point estimate with its binomial standard error."""

    point: float
    trials: int
    std_error: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.point <= 1.0:
            raise ValueError(f"estimate must be a probability, got {self.point}")
        if self.std_error < 0.0:
            raise ValueError(f"standard error cannot be negative, got {self.std_error}")


def prob_no_report(q: ProbQuery) -> float:
    """Closed form: (1-p) ** ((1 + (delta-1)*n*p/2) * delta).

    The exponent counts delta direct chances plus, for each interval u
    in 2..delta, n*p expected intermediaries with u-1 earlier chances
    each: delta + (1 + 2 + ... + (delta-1)) * n * p.
    """
    exponent = (1.0 + (q.delta - 1) * q.n * q.p / 2.0) * q.delta
    return (1.0 - q.p) ** exponent


def prob_report_within(q: ProbQuery) -> float:
    """Complement of :func:`prob_no_report`."""
    return 1.0 - prob_no_report(q)


def prob_no_report_exact(q: ProbQuery) -> float:
    """Exact probability that R has no report of R' within delta intervals.

    (1-p)**delta * [(1-p)**(delta-1) * (1 + (delta-1)*p)]**(n-2): no
    direct meeting, and for each independent intermediary either no
    meeting with R' before the last interval, or a first one at v after
    which R misses it in all delta-1-v remaining intervals.
    """
    no_relay = (1.0 - q.p) ** (q.delta - 1) * (1.0 + (q.delta - 1) * q.p)
    return (1.0 - q.p) ** q.delta * no_relay ** (q.n - 2)


def prob_report_within_exact(q: ProbQuery) -> float:
    """Complement of :func:`prob_no_report_exact`."""
    return 1.0 - prob_no_report_exact(q)


def prob_pair_meets_all(p: float, delta: int) -> float:
    """Probability that a fixed pair meets in every one of delta intervals: p**delta."""
    _check_p_delta(p, delta)
    return p**delta


def _report_events(edges: np.ndarray) -> np.ndarray:
    """Report indicator for a batch of sampled edge sequences.

    ``edges`` has shape (m, delta, 2*(n-2)+1), boolean, and holds only
    the edges that touch R (vertex 0) or R' (vertex 1): column 0 is the
    edge (0, 1), columns 1..n-2 are (0, k) and columns n-1..2n-4 are
    (1, k) for the intermediaries k = 2..n-1.  A trial counts if R meets
    R' in any interval, or meets at interval u someone who met R' at
    some v < u.  So the (0, k) cells of the first interval and the
    (1, k) cells of the last never decide the event; the sampler still
    draws them, so that every estimate keeps its stream.
    """
    m, delta, width = edges.shape
    k = (width - 1) // 2
    meets_r, meets_target = edges[:, :, 1 : k + 1], edges[:, :, k + 1 :]
    direct = edges[:, :, 0].any(axis=1)
    relayed = np.zeros(m, dtype=bool)
    met_target = np.zeros((m, k), dtype=bool)
    for t in range(1, delta):
        met_target |= meets_target[:, t - 1]
        relayed |= (meets_r[:, t] & met_target).any(axis=1)
    return direct | relayed


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS keeps one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this OS
        return os.cpu_count() or 1


def _part_hits(
    q: ProbQuery, seed: int, first: int, last: int, block: int, stop: threading.Event
) -> int | None:
    """Hits of trials ``[first, last)``, drawn in blocks of ``block`` trials.

    Each chunk the range covers gets its own child stream of ``seed``,
    advanced past the uniforms of the chunk's earlier trials.
    ``Generator.random`` takes one 64-bit output per double, so the part
    draws exactly the values that one pass over the whole chunk gives
    these trials.  Returns None, having counted only some trials, once
    ``stop`` is set.
    """
    width = 2 * (q.n - 2) + 1
    uniforms = np.empty((block, q.delta, width))
    edges = np.empty(uniforms.shape, dtype=bool)
    hits = 0
    for chunk in range(first // _MC_CHUNK, -(-last // _MC_CHUNK)):
        lo, hi = max(first, chunk * _MC_CHUNK), min(last, (chunk + 1) * _MC_CHUNK)
        # child ``chunk`` of the root, as ``SeedSequence(seed).spawn`` gives it
        bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        bits.advance((lo - chunk * _MC_CHUNK) * q.delta * width)
        rng = np.random.Generator(bits)
        for start in range(lo, hi, block):
            if stop.is_set():
                return None
            b = min(block, hi - start)
            rng.random(out=uniforms[:b])
            np.less(uniforms[:b], q.p, out=edges[:b])
            # One part's event pass at a time: it is mostly interpreter
            # time, which the GIL serialises anyway (no slower than
            # unlocked on perfbench's montecarlo_n48), and a single-threaded
            # tracer that wraps ``_report_events`` sees its calls nested.
            with _EVENT_PASS:
                events = _report_events(edges[:b])
            hits += int(events.sum())
    return hits


def mc_report_within(q: ProbQuery, trials: int, seed: int) -> Estimate:
    """Estimate the report probability over independently sampled graph sequences.

    Only the 2(n-2)+1 edges per interval that touch R or R' can decide
    the event, so only those are drawn: O(trials * delta * n) time and
    O(block) memory.  The target is :func:`prob_report_within_exact`, not
    the paper's approximation :func:`prob_report_within`, which lies about
    +0.0085 above it at (48, 0.17, 3).  Trials run in seed-derived chunks
    of ``_MC_CHUNK`` (one child stream per chunk), so the estimate is
    reproducible.

    The trial range runs as P contiguous parts, one thread each (the
    caller's thread runs part 0), with P the number of CPUs the process
    may use; numpy releases the GIL while it fills, compares and reduces.
    The parts share one ``_BLOCK_CELLS`` budget: each draws into a reused
    block of the whole trials that fit ``_BLOCK_CELLS // P`` uniforms, so
    peak memory is that of one block.  P is at most ``_BLOCK_CELLS //
    _PART_CELLS``, and 1 when one trial exceeds the budget (the block is
    then that one trial) or every trial fits one block.  Each part draws
    exactly its trials' uniforms (see :func:`_part_hits`) and the hits
    are summed as integers, so neither P nor the block size ever changes
    the estimate.  An exception in any part stops the others at their
    next block and is raised here.
    """
    if not _is_int(trials) or not 1 <= trials <= MAX_MC_TRIALS:
        raise ValueError(f"trials: must be an integer in 1..{MAX_MC_TRIALS}, got {trials!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed: must be a non-negative integer, got {seed!r}")
    cells = q.delta * (2 * (q.n - 2) + 1)  # uniforms per trial
    fit = _BLOCK_CELLS // cells
    parts = 1 if trials <= fit else max(1, min(_usable_cpus(), fit, _BLOCK_CELLS // _PART_CELLS))
    block = min(trials, _MC_CHUNK, max(1, _BLOCK_CELLS // parts // cells))
    bounds = [trials * i // parts for i in range(parts + 1)]
    counts: list[int | BaseException | None] = [None] * parts
    stop = threading.Event()

    def run(i: int) -> None:
        try:
            counts[i] = _part_hits(q, seed, bounds[i], bounds[i + 1], block, stop)
        except BaseException as exc:  # raised again in the caller, below
            counts[i] = exc
            stop.set()

    workers = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(1, parts)]
    for worker in workers:
        worker.start()
    run(0)
    for worker in workers:
        worker.join()
    for count in counts:
        if isinstance(count, BaseException):
            raise count
    hits = sum(counts)  # every part stored its count: no part failed, so none stopped
    point = hits / trials
    return Estimate(
        point=point,
        trials=trials,
        std_error=sqrt(point * (1.0 - point) / trials),
        seed=seed,
    )


def exact_small_enumeration(q: ProbQuery) -> float:
    """Exhaustively enumerate every graph sequence and sum report probabilities.

    All 2**(C(n,2)*delta) sequences are enumerated, each weighted by its
    exact probability.  Serves as an independent oracle for the Monte
    Carlo estimator and for sizing the closed form's approximation
    error, so it stays deliberately brute force.  Feasible only while
    C(n,2)*delta <= 24 edge slots.
    """
    pairs = list(combinations(range(q.n), 2))
    slots = len(pairs) * q.delta
    if slots > _MAX_ENUMERATION_SLOTS:
        raise InfeasibleError(
            f"{slots} edge slots exceed the {_MAX_ENUMERATION_SLOTS}-slot enumeration limit"
        )
    slot_index = {
        (t, pair): t * len(pairs) + k for t in range(q.delta) for k, pair in enumerate(pairs)
    }
    total = 0.0
    chunk = 1 << 20
    for start in range(0, 1 << slots, chunk):
        masks = np.arange(start, min(start + chunk, 1 << slots), dtype=np.uint64)
        bits = ((masks[:, None] >> np.arange(slots, dtype=np.uint64)) & 1).astype(bool)
        ones = bits.sum(axis=1)
        weights = (q.p**ones) * ((1.0 - q.p) ** (slots - ones))
        direct = np.zeros(len(masks), dtype=bool)
        for t in range(q.delta):
            direct |= bits[:, slot_index[(t, (0, 1))]]
        relayed = np.zeros(len(masks), dtype=bool)
        for k in range(2, q.n):
            for u in range(1, q.delta):
                meets_r = bits[:, slot_index[(u, (0, k))]]
                for v in range(u):
                    relayed |= meets_r & bits[:, slot_index[(v, (1, k))]]
        total += float(weights[direct | relayed].sum())
    return total


def pairing_threshold(n: int, p: float, alpha: float) -> int:
    """Paired-record count below which a robot looks suspicious: ceil((1-alpha)*n*p).

    Rounded up because a fractional record count is unattainable;
    rounding up is the conservative direction for trusting.  A product
    within 1e-9 above an integer is that integer (``100 * 0.07`` is 7.000000000000001).
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"assumed bad fraction must be in [0, 1), got {alpha}")
    return ceil((1.0 - alpha) * n * p - 1e-9)
