"""The one entry rule, seen from every place that applies it.

``chain.check_entry`` decides whether an event entry witnesses its peer.
The exchange (``verify_chain``), the local and central views
(``LocalView.claims`` / ``evidence``) and the post-task audit
(``central_audit``) must agree with it on every reason.
"""
from dataclasses import replace

import pytest

from swarmchain.chain import (
    GENESIS,
    EventEntry,
    EventList,
    LinkStore,
    build_event_list,
    check_entry,
    extend_history,
    link_digest,
    offer_entry,
    offer_history,
    signed_digest,
    verify_chain,
)
from swarmchain.crypto import Credential, SigningIdentity, provision_swarm, sign
from swarmchain.detect import (
    LocalView,
    audit_trace,
    central_audit,
    collective_disappeared,
    detect_disappeared,
)
from swarmchain.sim import AdversaryProfile, SimConfig, Simulation, SimTrace

OWNER, PEER, OTHER = 1, 2, 3
T = 3  # interval of the owner's link that carries the entry under test


def _self_keyed(robot_id):
    """An identity claiming ``robot_id`` under a key central control never
    issued, carrying a junk certificate."""
    _, (stranger,) = provision_swarm(1, seed=404)
    return SigningIdentity(
        credential=Credential(robot_id=robot_id, verify_key=stranger.credential.verify_key, cert=b"\x00" * 64),
        signing_key=stranger.signing_key,
    )


def _world():
    """Owner 1 with links at 1 and 2, peer 2 with links at 1 and 2, robot 3
    with a link at 1; plus a valid interval-2 link of the peer that the
    store does not hold."""
    central, identities = provision_swarm(3, seed=2718)
    o, p, q = identities
    store = LinkStore()
    p1 = extend_history(p, None, EventList.empty(1), store)
    p2 = extend_history(p, p1, EventList.empty(2), store)
    q1 = extend_history(q, None, EventList.empty(1), store)
    o1 = extend_history(o, None, EventList.empty(1), store)
    o2 = extend_history(o, o1, EventList.empty(2), store)
    unstored = extend_history(p, p1, build_event_list(PEER, 2, [offer_history(q, q1)]), LinkStore())
    return central, identities, store, {"p1": p1, "p2": p2, "q1": q1, "o2": o2, "unstored": unstored}


def _entry_case(reason, identities, store, links):
    """The entry for the peer, at interval T, that fails with ``reason``;
    the digest-mismatch case rebinds the peer's stored link in ``store``."""
    _, p, q = identities
    good = offer_entry(offer_history(p, links["p2"]))
    if reason is None:
        return good
    if reason == "entry-credential-mismatch":
        return replace(good, peer_credential=q.credential)
    if reason == "uncertified-credential":
        return offer_entry(offer_history(_self_keyed(PEER), None))
    if reason == "bad-entry-signature/genesis":
        return EventEntry(PEER, GENESIS, sign(q, GENESIS.value), p.credential)
    if reason == "bad-entry-signature/linked":
        return replace(good, peer_signature=sign(q, signed_digest(links["p2"]).value))
    if reason == "missing-entry-link":
        return offer_entry(offer_history(p, links["unstored"]))
    if reason == "entry-digest-mismatch":
        store._links[good.peer_link_digest] = links["unstored"]
        return good
    if reason == "entry-owner-mismatch":
        return replace(good, peer_link_digest=link_digest(links["q1"]), peer_signature=links["q1"].signature)
    if reason == "entry-interval-mismatch":
        return offer_entry(offer_history(p, links["p1"]))
    raise AssertionError(reason)


CASES = [
    None,
    "entry-credential-mismatch",
    "uncertified-credential",
    "bad-entry-signature/genesis",
    "bad-entry-signature/linked",
    "missing-entry-link",
    "entry-digest-mismatch",
    "entry-owner-mismatch",
    "entry-interval-mismatch",
]


@pytest.mark.parametrize("case", CASES)
def test_every_checker_applies_the_same_entry_rule(case):
    central, identities, store, links = _world()
    entry = _entry_case(case, identities, store, links)
    reason = None if case is None else case.split("/")[0]
    owner = identities[0]
    head = extend_history(owner, links["o2"], EventList(interval=T, entries=(entry,)), store)
    issued = {i.robot_id: i.credential for i in identities}

    assert check_entry(entry, T, store.get, issued) == reason

    verdict = verify_chain(head, owner.credential, store, T, issued)
    assert (verdict.ok, verdict.reason, verdict.interval) == (
        (True, None, None) if reason is None else (False, reason, T)
    )

    audit = central_audit({OWNER: head}, store, issued, T)
    assert audit.verification_failures == (() if reason is None else ((OWNER, T, reason),))

    trace = SimTrace(
        config=SimConfig(n=3, p=0.5, intervals=T, delta=T, seed=0),
        central_verify_key=central,
        credentials=issued,
        graphs=(),
        heads={OWNER: link_digest(head), PEER: None, OTHER: None},
        store=store,
        exchanges=(),
    )
    view = LocalView.central(trace)
    assert ((OWNER, PEER, T) in view.claims) == (reason is None)
    assert (view.evidence.get(PEER, 0) == T) == (reason is None)


def test_depth_one_forgives_only_a_missing_entry_link():
    _, identities, store, links = _world()
    owner = identities[0]
    issued = {i.robot_id: i.credential for i in identities}
    for case in ("missing-entry-link", "uncertified-credential", "entry-interval-mismatch"):
        entry = _entry_case(case, identities, store, links)
        head = extend_history(owner, links["o2"], EventList(interval=T, entries=(entry,)), LinkStore())
        verdict = verify_chain(head, owner.credential, store, 1, issued)
        assert verdict.ok == (case == "missing-entry-link"), (case, verdict)


# -- regression: an entry signed under a self-made credential --------------------------


DISAPPEARED, PLANTER, PLANTED = 5, 7, (4, 5, 6)


class _PlantingSimulation(Simulation):
    """Robot 7 records robot 5 alive at every planted interval, witnessed by
    a genesis signature under a key of its own with a junk certificate."""

    def _close_interval(self, r, t):
        if r == PLANTER and t in PLANTED:
            self._queues[r].append(offer_history(_self_keyed(DISAPPEARED), None))
        super()._close_interval(r, t)


def test_entries_under_uncertified_credentials_do_not_count():
    cfg = SimConfig(
        n=12, p=0.3, intervals=6, delta=3, alpha=0.1, seed=3,
        adversaries=(AdversaryProfile("disappear", frozenset({DISAPPEARED}), from_t=3, to_t=6),),
    )
    trace = _PlantingSimulation(cfg).run()

    assert DISAPPEARED in detect_disappeared(LocalView.central(trace), cfg.delta)
    assert DISAPPEARED in collective_disappeared(trace, cfg.delta)

    failures = audit_trace(trace).verification_failures
    for t in PLANTED:
        assert (PLANTER, t, "uncertified-credential") in failures

    head = trace.head_link(PLANTER)
    verdict = verify_chain(head, trace.credentials[PLANTER], trace.store, cfg.delta, trace.credentials)
    assert (verdict.ok, verdict.reason) == (False, "uncertified-credential")
