import pytest

from swarmchain.crypto import provision_swarm
from swarmchain.sim import AdversaryProfile, SimConfig, run_simulation


@pytest.fixture(scope="session")
def swarm5():
    """Five provisioned identities plus the central verify key."""
    central_vk, identities = provision_swarm(5, seed=99)
    return central_vk, identities


@pytest.fixture(scope="session")
def honest_trace_25():
    """One all-honest reference run at the n=25, p=0.33 operating point."""
    return run_simulation(SimConfig(n=25, p=0.33, intervals=3, delta=3, seed=1234))


@pytest.fixture(scope="session")
def refuse_record_trace_25():
    """Reference operating point with a third of the swarm refusing to record."""
    adv = AdversaryProfile(behavior="refuse_record", robots=frozenset(range(1, 9)))
    return run_simulation(
        SimConfig(n=25, p=0.33, intervals=3, delta=3, alpha=1 / 3, seed=4321, adversaries=(adv,))
    )


@pytest.fixture(scope="session")
def colluder_trace_25():
    """A pair fabricating co-meetings every interval."""
    adv = AdversaryProfile(behavior="collude", robots=frozenset({3, 7}))
    return run_simulation(
        SimConfig(n=25, p=0.33, intervals=3, delta=3, alpha=0.1, seed=777, adversaries=(adv,))
    )


def _audit_checking_every_entry(heads, store, credentials, total_intervals):
    """``central_audit`` as it was before it read the claim index: every
    entry of every chain goes through ``walk_chain`` and ``check_entry``,
    and the pairing cross-check runs over Python sets of claims."""
    from swarmchain.chain import walk_chain
    from swarmchain.detect import AuditReport

    failures, gaps, missing, claims = [], [], [], set()
    for robot in sorted(heads):
        head = heads[robot]
        if head is None:
            missing.append(robot)
            continue
        for first, last, reason, peer in walk_chain(head, credentials.get(robot), store, credentials, None):
            if reason is None:
                claims.add((robot, peer, first))
            elif reason in ("interval-gap", "late-start"):
                gaps.append((robot, first, last))
            else:
                failures.append((robot, last, reason))
        if head.interval < total_intervals:
            gaps.append((robot, head.interval + 1, total_intervals))
    return AuditReport(
        total_intervals=total_intervals,
        verification_failures=tuple(failures),
        unpaired_claims=tuple(sorted((a, b, t) for (a, b, t) in claims if (b, a, t) not in claims)),
        gaps=tuple(gaps),
        missing_heads=tuple(missing),
        encounters=frozenset((a, b, t) for (a, b, t) in claims if a < b and (b, a, t) in claims),
    )


@pytest.fixture(scope="session")
def reference_audit():
    """The audit that checks every entry again, for differential tests of
    ``central_audit``, which takes the entry verdicts of the claim index."""
    return _audit_checking_every_entry
