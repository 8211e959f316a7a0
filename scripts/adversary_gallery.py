#!/usr/bin/env python3
"""Run one small scenario per misbehavior type and show what the detectors see.

A quick tour of the failure modes: for each scenario the script prints
the exchange anomalies, the central suspicion report, and the audit
findings, next to the ground truth that was injected.
"""
import argparse
import sys

from swarmchain.detect import PAIRING_STATUS, LocalView, audit_trace, compile_report
from swarmchain.sim import AdversaryProfile, SimConfig, run_simulation

# (profile, edge probability): collusion runs at a sparser p so that four
# consecutive co-meetings are actually improbable enough to flag
SCENARIOS = {
    "refuse_record": (AdversaryProfile(behavior="refuse_record", robots=frozenset({2})), 0.5),
    "refuse_give": (AdversaryProfile(behavior="refuse_give", robots=frozenset({2})), 0.5),
    "disappear": (
        AdversaryProfile(behavior="disappear", robots=frozenset({2}), from_t=2, to_t=4),
        0.5,
    ),
    "collude": (AdversaryProfile(behavior="collude", robots=frozenset({2, 5})), 0.33),
    "forge_claim": (
        AdversaryProfile(behavior="forge_claim", robots=frozenset({2}), target=7),
        0.5,
    ),
}


def show(name: str, profile: AdversaryProfile, p: float, seed: int) -> None:
    cfg = SimConfig(
        n=10, p=p, intervals=4, delta=3, alpha=0.2, seed=seed, adversaries=(profile,)
    )
    trace = run_simulation(cfg)
    report = compile_report(LocalView.central(trace), cfg.delta, cfg.alpha, 0.05)
    audit = audit_trace(trace)
    print(f"== {name} (robots {sorted(profile.robots)})")
    notes = [note for x in trace.exchanges for note in x.notes]
    fabricated = sum(1 for x in trace.exchanges if x.fabricated)
    print(f"   exchange notes: {len(notes)} ({fabricated} fabricated meetings)")
    print(f"   disappeared: {sorted(report.disappeared)}")
    pairing = report.pairing
    suspicious = [r for r, status in zip(pairing.robot, pairing.status) if PAIRING_STATUS[status] == "suspicious"]
    print(f"   pairing-suspicious: {suspicious}")
    print(f"   collusion suspects: {sorted(report.collusion_suspects)}")
    print(f"   revocations: {sorted(report.revoked)}")
    print(
        f"   audit: {len(audit.verification_failures)} verification failures, "
        f"{len(audit.unpaired_claims)} unpaired claims, "
        f"{len(audit.gaps)} gaps, missing heads {list(audit.missing_heads)}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--only", choices=sorted(SCENARIOS), default=None)
    args = parser.parse_args(argv)
    for name, (profile, p) in SCENARIOS.items():
        if args.only and name != args.only:
            continue
        show(name, profile, p, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
