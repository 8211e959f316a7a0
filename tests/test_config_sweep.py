"""Every validated config runs end to end.

A seeded sweep of small configs (n <= 9, at most 5 intervals, every
behaviour, window null, 1 or 2), each simulated, written to JSON, loaded
back and read by every observer report, the central report, the audit,
the collective disappearance count and the collusion suite.
"""
import random

import pytest

from swarmchain import suites
from swarmchain.detect import LocalView, audit_trace, collective_disappeared, compile_report
from swarmchain.sim import BEHAVIORS, AdversaryProfile, SimConfig, SimTrace, run_simulation

EPSILON = 0.05


def _random_config(seed: int) -> SimConfig:
    """A valid config drawn from ``random.Random(seed)``: up to one profile
    per behaviour over distinct robots, and at least one honest robot."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    intervals = rng.randint(1, 5)
    free = rng.sample(range(1, n + 1), n - 1)  # the last robot stays honest
    profiles = []
    for behavior in rng.sample(BEHAVIORS, rng.randint(0, len(BEHAVIORS))):
        size = rng.randint(2 if behavior == "collude" else 1, 3)
        if size > len(free):
            continue
        robots = frozenset(free[:size])
        free = free[size:]
        window = {}
        if behavior == "disappear":
            from_t = rng.randint(1, intervals)
            window = {"from_t": from_t, "to_t": rng.randint(from_t, intervals)}
        elif behavior == "forge_claim":
            window = {"target": rng.choice([r for r in range(1, n + 1) if r not in robots])}
        profiles.append(AdversaryProfile(behavior=behavior, robots=robots, **window))
    adversaries = sum(len(profile.robots) for profile in profiles)
    return SimConfig(
        n=n,
        p=rng.choice([0.0, 0.2, 0.5, 0.8, 1.0]),
        intervals=intervals,
        delta=rng.randint(1, intervals),
        alpha=adversaries / n,
        window=rng.choice([None, 1, 2]),
        seed=seed,
        adversaries=tuple(profiles),
    )


@pytest.mark.parametrize("seed", range(300))
def test_a_validated_config_simulates_and_every_reader_reads_it(seed):
    config = _random_config(seed)
    text = run_simulation(config).to_json()
    trace = SimTrace.from_json(text)
    assert trace.to_json() == text
    for robot in range(1, config.n + 1):
        if trace.heads[robot] is not None:
            compile_report(LocalView.from_trace(trace, robot), config.delta, config.alpha, EPSILON)
    compile_report(LocalView.central(trace), config.delta, config.alpha, EPSILON)
    audit_trace(trace)
    collective_disappeared(trace, config.delta)
    suites.flagged(trace, EPSILON)
