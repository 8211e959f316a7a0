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
    entry of every chain goes through ``check_entry``, and the pairing
    cross-check runs over Python sets of claims.  The findings are the
    walk's (``walk_chain`` runs ``check_entry`` on each entry it meets);
    the claims come from a walk of its own over the same links: each link
    that passes ``check_link``, back to where ``walk_chain`` stops."""
    from swarmchain.chain import GENESIS, check_entry, check_link, link_digest, walk_chain
    from swarmchain.detect import AuditReport

    failures, gaps, missing, claims = [], [], [], set()
    for robot in sorted(heads):
        head = heads[robot]
        if head is None:
            missing.append(robot)
            continue
        credential = credentials.get(robot)
        for first, last, reason in walk_chain(head, credential, store, credentials, None):
            if reason in ("interval-gap", "late-start"):
                gaps.append((robot, first, last))
            else:
                failures.append((robot, last, reason))
        if head.interval < total_intervals:
            gaps.append((robot, head.interval + 1, total_intervals))
        link = head
        while link is not None:
            t, verdict = link.interval, check_link(link, credential)
            if verdict == "wrong-owner":
                break
            if verdict is None:
                for entry in link.events.entries:
                    if check_entry(entry, t, store.get, credentials) is None:
                        claims.add((robot, entry.peer_id, t))
            prev = None if link.prev_digest == GENESIS else store.get(link.prev_digest)
            linked = prev is not None and link_digest(prev) == link.prev_digest and prev.interval < t
            link = prev if linked else None
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


def _refusal(head, credential, store, depth, credentials):
    """``verify_chain``'s answer with the interval it names: None, or the
    first ``walk_chain`` finding but the forgiven ones, as (reason, last
    interval), checked to be the reason ``verify_chain`` gave."""
    from swarmchain.chain import verify_chain, walk_chain

    reason = verify_chain(head, credential, store, depth, credentials)
    if reason is None:
        return None
    forgiven = ("late-start",) if depth > 1 else ("late-start", "missing-entry-link")
    walk = walk_chain(head, credential, store, credentials, depth)
    found = next(((r, last) for _, last, r in walk if r not in forgiven), None)
    assert found is not None and found[0] == reason, (found, reason)
    return found


@pytest.fixture(scope="session")
def refusal():
    """``verify_chain`` with the interval of its refusal, for tests that
    pin where a chain is refused."""
    return _refusal


def _paired_intervals(view):
    """(a, b) with a < b -> the intervals in which both sides recorded the
    meeting, read from the view's pairing tally."""
    import numpy as np

    out = {}
    index = view.index
    for a, b, t in index.claims_at(np.flatnonzero(view._pairing.mutual & index.claim_forward)):
        out.setdefault((a, b), set()).add(t)
    return out


@pytest.fixture(scope="session")
def paired_intervals():
    """The paired encounters of a view, by pair."""
    return _paired_intervals
