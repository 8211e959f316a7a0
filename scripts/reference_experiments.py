#!/usr/bin/env python3
"""Reproduce the headline numbers for the two reference operating points.

Runs, for n=25/p=0.33 and n=48/p=0.17:

  * the closed-form sighting probabilities,
  * the exact sighting probability, a Monte Carlo estimate of the same
    event on sampled graphs, and the paper closed form's bias,
  * framing suites (a third of the swarm refusing to record) counting
    honest robots the remaining swarm collectively loses track of,
  * collusion suites counting how often a fabricating pair is flagged
    and how often an honest pair trips the same detector by chance.

Defaults are sized for a quick look; --full matches the acceptance
suite's run counts.
"""
import argparse
import sys
import time

from swarmchain import suites
from swarmchain.prob import (
    ProbQuery,
    mc_report_within,
    prob_no_report,
    prob_pair_meets_all,
    prob_report_within,
    prob_report_within_exact,
)
from swarmchain.sim import AdversaryProfile, SimConfig


def closed_forms() -> None:
    print("closed forms")
    for n, p in ((25, 0.33), (48, 0.17)):
        for delta in (3, 4):
            q = ProbQuery(n, p, delta)
            print(
                f"  n={n:2d} p={p:.2f} delta={delta}: "
                f"P(report) = {prob_report_within(q):.8f}   "
                f"P(no report) = {prob_no_report(q):.3e}   "
                f"P(pair meets every interval) = {prob_pair_meets_all(p, delta):.6f}"
            )


def monte_carlo(trials: int, seed: int) -> None:
    print(f"monte carlo vs exact and closed form ({trials} trials)")
    for n, p, delta in ((25, 0.33, 3), (48, 0.17, 3)):
        q = ProbQuery(n, p, delta)
        est = mc_report_within(q, trials, seed)
        exact = prob_report_within_exact(q)
        closed = prob_report_within(q)
        print(
            f"  n={n:2d} p={p:.2f} delta={delta}: empirical {est.point:.6f} "
            f"+/- {est.std_error:.6f} vs exact {exact:.6f} "
            f"(|gap| {abs(est.point - exact):.6f}); "
            f"closed {closed:.6f} (bias {closed - exact:+.6f})"
        )


def framing(runs: int, seed: int) -> None:
    print(f"framing suites ({runs} runs each, a third of robots refuse to record)")
    for n, p, delta, bad in ((25, 0.33, 3, 8), (48, 0.17, 4, 16), (48, 0.17, 3, 16)):
        adv = AdversaryProfile(behavior="refuse_record", robots=frozenset(range(1, bad + 1)))
        cfg = SimConfig(n=n, p=p, intervals=delta, delta=delta, alpha=1 / 3, seed=seed, adversaries=(adv,))
        framed = sum(len(suites.framed(trace)) for trace in suites.runs(cfg, runs))
        print(f"  n={n:2d} p={p:.2f} delta={delta}: honest robots framed: {framed}")


def _chance_flag_rate(p: float, delta: int, epsilon: float) -> float:
    """Probability an honest pair trips the detector: its longest co-meeting
    run reaches the smallest k with p**k < epsilon.  Exact by enumeration
    over the 2**delta meeting patterns."""
    k_min = next((k for k in range(1, delta + 1) if p**k < epsilon), None)
    if k_min is None:
        return 0.0
    total = 0.0
    for pattern in range(1 << delta):
        bits = [(pattern >> t) & 1 for t in range(delta)]
        run = best = 0
        for b in bits:
            run = run + 1 if b else 0
            best = max(best, run)
        if best >= k_min:
            weight = p ** sum(bits) * (1 - p) ** (delta - sum(bits))
            total += weight
    return total


def collusion(runs: int, seed: int) -> None:
    print(f"collusion suites ({runs} runs each, epsilon=0.05)")
    for n, p in ((25, 0.33), (48, 0.17)):
        adv = AdversaryProfile(behavior="collude", robots=frozenset({3, 7}))
        cfg = SimConfig(n=n, p=p, intervals=3, delta=3, alpha=0.1, seed=seed, adversaries=(adv,))
        flagged = honest_flagged = 0
        for trace in suites.runs(cfg, runs):
            suspects = suites.flagged(trace, 0.05)
            flagged += (3, 7) in suspects
            honest_flagged += (10, 11) in suspects
        chance = _chance_flag_rate(p, 3, 0.05)
        print(
            f"  n={n:2d} p={p:.2f}: fabricating pair flagged {flagged}/{runs}; "
            f"honest pair flagged {honest_flagged}/{runs} "
            f"(chance rate {chance:.4f})"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1_000_000)
    parser.add_argument("--full", action="store_true", help="acceptance-scale counts")
    args = parser.parse_args(argv)
    if args.full:
        args.trials, args.runs = 100_000, 1000

    start = time.perf_counter()
    closed_forms()
    monte_carlo(args.trials, args.seed)
    framing(args.runs, args.seed)
    collusion(args.runs, args.seed)
    print(f"done in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
