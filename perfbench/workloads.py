"""The benchmark's three workloads and the output check each op must pass.

Every workload is a closed loop with one caller: the next op starts when
the previous one returned.  All inputs derive from the run's seed; the
program under test only ever sees the generated configs and seeds.

* ``framing_n48``    -- criterion 4's heaviest suite, the chain write path.
* ``analyze_n100``   -- the CLI's simulate -> analyze path, the chain read path.
* ``montecarlo_n48`` -- one default-size Monte Carlo chunk, numpy only.

Importing this module puts the checkout's ``src`` first on ``sys.path``
and refuses any ``swarmchain`` that does not come from it, so the
benchmark measures the tree it sits in or fails.
"""
from __future__ import annotations

import random
import sys
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from clock import ReferenceClock

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import swarmchain  # noqa: E402

if not Path(swarmchain.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"swarmchain imported from {swarmchain.__file__}, not from {SRC}")


def exact_report_within(n: int, p: float, delta: int) -> float:
    """Exact probability that R hears of R' within delta intervals.

    Counts the same event as ``mc_report_within`` and
    ``exact_small_enumeration``: a direct meeting, or a meeting at u with
    an intermediary k that met R' at some v < u.  The n-2 intermediaries
    use disjoint edges, so they are independent; k relays nothing unless
    R misses k in every interval after k first met R', which sums to
    (1-p)**(delta-1) * (1 + (delta-1)*p).
    """
    no_relay = (1.0 - p) ** (delta - 1) * (1.0 + (delta - 1) * p)
    return 1.0 - (1.0 - p) ** delta * no_relay ** (n - 2)


def op_seeds(seed: int) -> Iterator[int]:
    """Distinct 32-bit program seeds, a pure function of the run's seed."""
    rng = random.Random(seed)
    seen: set[int] = set()
    while True:
        s = rng.getrandbits(32)
        if s not in seen:
            seen.add(s)
            yield s


@dataclass
class Outcome:
    """What one timed phase did: per-op latencies and which ops failed.

    Times are in reference seconds (see ``clock.py``) except ``raw_wall_s``.
    """

    latencies_s: list[float] = field(default_factory=list)
    failed: int = 0
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    def fail(self, why: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.failures) < 5:
            self.failures.append(why)


RAW_CAP = 1.5  # a run stops after this many times --seconds of raw time


def _timed_op(out: Outcome, clock: ReferenceClock, op: Callable[[], str | None]) -> None:
    """Run one op, timed from the clock's latest mark to a new one.

    The op returns None when its output check passed, else why not.
    """
    start = clock.ref_s
    try:
        why = op()
    except Exception:  # an op that raises is a failed op, not a benchmark crash
        why = traceback.format_exc(limit=3)
    out.latencies_s.append(clock.mark() - start)
    if why is not None:
        out.fail(why)


def _loop(seconds: float, kernel: str, phase: Callable[[Outcome, ReferenceClock], None]) -> Outcome:
    """Repeat ``phase`` until ``seconds`` of reference time have passed.

    Counting reference time keeps the op count, and so the fill of the
    program's process-wide memos, independent of the host's drift; the
    raw-time cap keeps a run on a much slower host within its budget.
    Each phase ends on a clock mark, so the wall time covers all of it.
    """
    out = Outcome()
    clock = ReferenceClock(kernel)
    while clock.ref_s < seconds and clock.raw_s < RAW_CAP * seconds:
        phase(out, clock)
    out.wall_s, out.raw_wall_s = clock.ref_s, clock.raw_s
    return out


class Framing:
    """One op: a seeded n=48, p=0.17, delta=intervals=4 run with robots 1-16
    refusing to record, then ``collective_disappeared``.  Check: no honest
    robot is marked disappeared by the whole honest swarm."""

    name = "framing_n48"
    kernel = "interpreter"
    check = "no honest robot framed"
    N, P, DELTA, BAD = 48, 0.17, 4, 16

    def __init__(self, seed: int) -> None:
        from swarmchain import detect, sim

        self.sim, self.detect = sim, detect
        self.seeds = op_seeds(seed)
        self.adversaries = (
            sim.AdversaryProfile(behavior="refuse_record", robots=frozenset(range(1, self.BAD + 1))),
        )
        self.honest = frozenset(range(self.BAD + 1, self.N + 1))

    def _op(self, seed: int) -> str | None:
        cfg = self.sim.SimConfig(
            n=self.N, p=self.P, intervals=self.DELTA, delta=self.DELTA,
            alpha=self.BAD / self.N, seed=seed, adversaries=self.adversaries,
        )
        trace = self.sim.run_simulation(cfg)
        framed = self.detect.collective_disappeared(trace, self.DELTA) & self.honest
        return f"seed {seed}: honest robots {sorted(framed)} framed" if framed else None

    def run(self, seconds: float) -> Outcome:
        return _loop(
            seconds, self.kernel, lambda out, clock: _timed_op(out, clock, partial(self._op, next(self.seeds)))
        )


class Analyze:
    """The timed phase per trace: an all-honest n=100 run, trace to JSON and
    back, then one op per robot (``LocalView.from_trace`` +
    ``compile_report``), the central report and ``audit_trace``.  Checks:
    every observer report has no unpaired claims, the audit is clean and
    its encounters are exactly the generated graph edges.  A failed
    trace-level check fails every op of that trace."""

    name = "analyze_n100"
    kernel = "interpreter"
    check = "observer reports have no unpaired claims; audit clean, encounters == graph edges"
    N, P, INTERVALS, DELTA, ALPHA, EPSILON = 100, 0.17, 5, 3, 0.0, 0.05

    def __init__(self, seed: int) -> None:
        from swarmchain import detect, sim

        self.sim, self.detect = sim, detect
        self.seeds = op_seeds(seed)

    def _observer_op(self, trace, robot: int) -> str | None:
        view = self.detect.LocalView.from_trace(trace, robot)
        report = self.detect.compile_report(view, self.DELTA, self.ALPHA, self.EPSILON)
        if report.unpaired_claims:
            return f"observer {robot}: unpaired claims {report.unpaired_claims[:3]}"
        return None

    def _trace_phase(self, out: Outcome, clock: ReferenceClock) -> None:
        sim, detect = self.sim, self.detect
        seed = next(self.seeds)
        t0, first, failed_before = clock.ref_s, out.attempted, out.failed
        try:
            cfg = sim.SimConfig(n=self.N, p=self.P, intervals=self.INTERVALS, delta=self.DELTA, seed=seed)
            generated = sim.run_simulation(cfg)
            text = generated.to_json(manifest=sim.run_manifest(cfg))
            trace = sim.SimTrace.from_json(text)
            clock.mark()
            for robot in range(1, self.N + 1):
                if trace.heads.get(robot) is not None:
                    _timed_op(out, clock, partial(self._observer_op, trace, robot))
            detect.compile_report(detect.LocalView.central(trace), self.DELTA, self.ALPHA, self.EPSILON)
            audit = detect.audit_trace(trace)
            truth = frozenset((u, v, g.interval) for g in generated.graphs for (u, v) in g.edges)
            why = None
            if not audit.clean or audit.encounters != truth:
                why = f"seed {seed}: audit clean={audit.clean}, encounters match={audit.encounters == truth}"
        except Exception:  # a trace-level failure loses every op of the trace
            why = traceback.format_exc(limit=3)
        end = clock.mark()
        if why is not None:
            if out.attempted == first:
                out.latencies_s.append(end - t0)
            out.failed = failed_before
            out.fail(why, out.attempted - first)

    def run(self, seconds: float) -> Outcome:
        return _loop(seconds, self.kernel, self._trace_phase)


class MonteCarlo:
    """One op: ``mc_report_within(ProbQuery(48, 0.17, 3), 20_000, seed)``, one
    chunk of the CLI's default ``--trials 100000``.  Check: the estimate is
    within 5 standard errors of :func:`exact_report_within`."""

    name = "montecarlo_n48"
    kernel = "memory"
    check = "estimate within 5 standard errors of the exact probability"
    N, P, DELTA, TRIALS = 48, 0.17, 3, 20_000

    def __init__(self, seed: int) -> None:
        from swarmchain import prob

        self.prob = prob
        self.seeds = op_seeds(seed)
        self.query = prob.ProbQuery(self.N, self.P, self.DELTA)
        self.exact = exact_report_within(self.N, self.P, self.DELTA)

    def closed_form_bias(self) -> float:
        """The paper's approximation minus the exact value at this query."""
        return self.prob.prob_report_within(self.query) - self.exact

    def _op(self, seed: int) -> str | None:
        est = self.prob.mc_report_within(self.query, self.TRIALS, seed)
        gap = abs(est.point - self.exact)
        if gap > 5 * est.std_error:
            return f"seed {seed}: estimate {est.point} is {gap:.5f} from exact {self.exact:.5f}"
        return None

    def run(self, seconds: float) -> Outcome:
        return _loop(
            seconds, self.kernel, lambda out, clock: _timed_op(out, clock, partial(self._op, next(self.seeds)))
        )


WORKLOADS = {w.name: w for w in (Framing, Analyze, MonteCarlo)}
