"""The suite runner and the one link-signing step.

``swarmchain.suites`` states the seed schedule and what framing and
collusion suites count; the CLI's scenario suite must agree with it.
``chain.sign_link`` encodes each link's payload once, including the
link a robot signs over an outage and the link a forger fabricates.
"""
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from swarmchain import chain, suites
from swarmchain.cli import main
from swarmchain.detect import audit_trace, collective_disappeared
from swarmchain.sim import AdversaryProfile, SimConfig, run_simulation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Robot 3 is away for intervals 2..3 and signs its interval-4 link over the gap.
RETURNING = SimConfig(
    n=8, p=0.6, intervals=5, delta=3, alpha=0.2, seed=5,
    adversaries=(AdversaryProfile(behavior="disappear", robots=frozenset({3}), from_t=2, to_t=3),),
)


# Robot 2 is away for intervals 1..2, so its first link is at interval 3.
LATE_START = SimConfig(
    n=6, p=0.5, intervals=4, delta=2, alpha=0.2, seed=3,
    adversaries=(AdversaryProfile(behavior="disappear", robots=frozenset({2}), from_t=1, to_t=2),),
)


def _config(name):
    return SimConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))


def test_run_i_simulates_the_config_at_seed_plus_i():
    config = _config("framing_n25")
    traces = list(suites.runs(config, 3))
    assert len(traces) == 3
    for i, trace in enumerate(traces):
        assert trace.to_json() == run_simulation(replace(config, seed=config.seed + i)).to_json()


def test_framed_never_contains_an_adversary():
    config = _config("disappearance_n25")
    adversaries = config.adversary_ids()
    lost_adversary = False
    for trace in suites.runs(config, 5):
        assert not suites.framed(trace) & adversaries
        assert suites.framed(trace) == collective_disappeared(trace, config.delta) - adversaries
        lost_adversary |= bool(collective_disappeared(trace, config.delta) & adversaries)
    # the vanished robot is marked disappeared, so the subtraction is exercised
    assert lost_adversary


def test_framed_counts_every_robot_that_met_nobody():
    """Positive control: in a sparse all-honest swarm every other observer
    loses a robot that met nobody, and only such a robot."""
    for trace in suites.runs(SimConfig(n=10, p=0.02, intervals=3, delta=3, seed=1), 5):
        met = {r for g in trace.graphs for edge in g.edges for r in edge}
        isolated = frozenset(range(1, 11)) - met
        assert isolated
        assert suites.framed(trace) == isolated


@pytest.mark.parametrize(
    "name,framed,flagged_runs",
    [("collusion_n25", 0, 20), ("framing_n25", 0, 0), ("disappearance_n25", 0, 0)],
)
def test_montecarlo_scenario_suite_counts_what_the_suite_counts(name, framed, flagged_runs, capsys):
    """A run counts as collusion flagged only when the central view flags
    one of the config's own colluding pairs; honest pairs that met in
    every window interval are flagged by chance and do not count."""
    argv = ["montecarlo", "--config", str(CONFIGS / f"{name}.json"), "--runs", "20", "--trials", "2000"]
    assert main(argv + ["--format", "machine"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (scenario,) = [r for r in records if r["record"] == "scenario-suite"]
    config = _config(name)
    traces = list(suites.runs(config, 20))
    assert scenario == {
        "record": "scenario-suite",
        "runs": 20,
        "honest_robots_framed": sum(len(suites.framed(t)) for t in traces),
        "collusion_flagged_runs": sum(bool(suites.flagged(t, 0.05) & config.colluder_pairs()) for t in traces),
    }
    assert (scenario["honest_robots_framed"], scenario["collusion_flagged_runs"]) == (framed, flagged_runs)


@pytest.mark.parametrize("config", [RETURNING, _config("forge_n10")], ids=["disappear", "forge_claim"])
def test_each_stored_link_is_encoded_once(config, monkeypatch):
    counts = Counter()
    encode, insert = chain.canonical_encode, chain.LinkStore.insert

    def counting_encode(*args):
        counts["encode"] += 1
        return encode(*args)

    def counting_insert(store, link):
        counts["insert"] += 1
        return insert(store, link)

    monkeypatch.setattr(chain, "canonical_encode", counting_encode)
    monkeypatch.setattr(chain.LinkStore, "insert", counting_insert)
    run_simulation(config)
    assert counts["insert"] > 0
    assert counts["encode"] == counts["insert"]


def test_the_link_over_an_outage_verifies_and_the_gap_is_audited():
    trace = run_simulation(RETURNING)
    (link,) = [link for link in trace.store.links() if link.owner_id == 3 and link.interval == 4]
    assert trace.store.get(link.prev_digest).interval == 1
    assert chain.check_link(link, trace.credentials[3]) is None
    audit = audit_trace(trace)
    assert (3, 2, 3) in audit.gaps
    assert not [f for f in audit.verification_failures if f[0] == 3]


def test_a_first_link_after_interval_1_starts_late_and_the_gap_is_audited(tmp_path, capsys):
    trace = run_simulation(LATE_START)
    links = sorted((link for link in trace.store.links() if link.owner_id == 2), key=lambda link: link.interval)
    assert [link.interval for link in links] == [3, 4]
    assert links[0].prev_digest == chain.GENESIS
    assert chain.check_link(links[0], trace.credentials[2]) is None
    audit = audit_trace(trace)
    assert (2, 1, 2) in audit.gaps
    assert not audit.verification_failures
    config, out = tmp_path / "late_start.json", tmp_path / "trace.json"
    config.write_text(json.dumps(LATE_START.to_dict()))
    assert main(["simulate", "--config", str(config), "--output", str(out)]) == 0
    assert main(["analyze", "--trace", str(out)]) == 0
    assert "coverage gap: robot 2 intervals 1..2" in capsys.readouterr().out
