"""The one entry rule and the one offer rule, seen from every place that
applies them.

``chain.check_entry`` decides whether an event entry witnesses its peer.
The exchange (``check_offer``, through ``verify_chain``), the local and
central views (``LocalView.claims`` / ``evidence``) and the post-task
audit (``central_audit``) must agree with it on every reason.
``chain.check_offer`` decides whether an exchange offer may be recorded,
and the simulator asks it once per offer and interval.
``chain.walk_chain`` is the one chain walk: ``verify_chain`` and
``central_audit`` read the same findings from it.
"""
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from swarmchain import chain, crypto, sim
from swarmchain.chain import (
    GENESIS,
    EventEntry,
    EventList,
    HistoryOffer,
    LinkStore,
    build_event_list,
    check_entry,
    check_offer,
    decode_link,
    encode_link,
    extend_history,
    link_digest,
    offer_entry,
    offer_history,
    sign_link,
    signed_digest,
    verify_chain,
    walk_chain,
)
from swarmchain.crypto import Credential, SigningIdentity, provision_swarm, sign
from swarmchain.detect import (
    ClaimIndex,
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
    unstored = extend_history(p, p1, build_event_list(2, [offer_history(q, q1)]), LinkStore())
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
        return EventEntry(PEER, GENESIS, sign(q, GENESIS), p.credential)
    if reason == "bad-entry-signature/linked":
        return replace(good, peer_signature=sign(q, signed_digest(links["p2"])))
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
def test_every_checker_applies_the_same_entry_rule(case, refusal):
    central, identities, store, links = _world()
    entry = _entry_case(case, identities, store, links)
    reason = None if case is None else case.split("/")[0]
    owner = identities[0]
    head = extend_history(owner, links["o2"], EventList(interval=T, entries=(entry,)), store)
    issued = {i.robot_id: i.credential for i in identities}

    assert check_entry(entry, T, store.get, issued) == reason

    assert refusal(head, owner.credential, store, T, issued) == (None if reason is None else (reason, T))

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
        reason = verify_chain(head, owner.credential, store, 1, issued)
        assert (reason is None) == (case == "missing-entry-link"), (case, reason)


# -- the offer rule ----------------------------------------------------------------


def _offer_case(case, identities, store, links):
    """(offer, interval it is made at, window) for one row of the offer rule.

    ``offer_entry`` names the credential's owner and the offered link
    resolves to itself, so ``entry-credential-mismatch``,
    ``entry-digest-mismatch`` and, for the offered link, ``missing-entry-link``
    cannot arise; the rows after the entry reasons break an ancestor the
    window reaches.
    """
    _, p, q = identities
    p1, p2 = links["p1"], links["p2"]

    def over(ancestor, interval=None):
        """A stored, empty link of the peer's whose previous link is ``ancestor``."""
        t = ancestor.interval + 1 if interval is None else interval
        link = sign_link(p, PEER, EventList.empty(t), link_digest(ancestor))
        store.insert(link)
        return link

    if case == "genesis":
        return offer_history(p, None), 1, 1
    if case == "linked":
        return offer_history(p, p2), 3, 2
    if case == "uncertified-credential":
        return offer_history(_self_keyed(PEER), None), 1, 1
    if case == "bad-entry-signature/wrong-key":
        wrong_key = sign(q, GENESIS)
        return HistoryOffer(credential=p.credential, link=None, genesis_signature=wrong_key), 1, 1
    if case == "bad-entry-signature/tampered":
        tampered = replace(p2, signature=bytes([p2.signature[0] ^ 1]) + p2.signature[1:])
        return HistoryOffer(credential=p.credential, link=tampered), 3, 2
    if case == "entry-owner-mismatch":
        return HistoryOffer(credential=p.credential, link=links["q1"]), 2, 1
    if case == "entry-interval-mismatch/stale":
        return offer_history(p, p1), 3, 2
    if case == "wrong-owner":
        return offer_history(p, over(links["q1"])), 3, 2
    if case == "bad-signature":
        forged = sign_link(q, PEER, EventList.empty(1), GENESIS)
        store.insert(forged)
        return offer_history(p, over(forged)), 3, 2
    if case == "bad-signature/beyond-window":
        forged = sign_link(q, PEER, EventList.empty(1), GENESIS)
        store.insert(forged)
        return offer_history(p, over(forged)), 3, 1
    if case == "missing-link":
        return offer_history(p, over(links["unstored"])), 4, 2
    if case == "digest-mismatch":
        store._links[link_digest(p2)] = links["unstored"]
        return offer_history(p, over(p2)), 4, 3
    if case == "interval-gap":
        return offer_history(p, over(p1, interval=3)), 4, 3
    if case == "interval-order":
        return offer_history(p, over(p2, interval=2)), 3, 2
    if case == "missing-entry-link":
        unstored_q2 = sign_link(q, OTHER, EventList.empty(2), link_digest(links["q1"]))
        p3 = sign_link(p, PEER, build_event_list(3, [offer_history(q, unstored_q2)]), link_digest(p2))
        store.insert(p3)
        return offer_history(p, over(p3)), 5, 2
    raise AssertionError(case)


OFFER_CASES = {
    "genesis": None,
    "linked": None,
    "uncertified-credential": "uncertified-credential",
    "bad-entry-signature/wrong-key": "bad-entry-signature",
    "bad-entry-signature/tampered": "bad-entry-signature",
    "entry-owner-mismatch": "entry-owner-mismatch",
    "entry-interval-mismatch/stale": "entry-interval-mismatch",
    "wrong-owner": "wrong-owner",
    "bad-signature": "bad-signature",
    "bad-signature/beyond-window": None,
    "missing-link": "missing-link",
    "digest-mismatch": "digest-mismatch",
    "interval-gap": "interval-gap",
    "interval-order": "interval-order",
    "missing-entry-link": "missing-entry-link",
}


@pytest.mark.parametrize("case", OFFER_CASES)
def test_offer_rule(case):
    _, identities, store, links = _world()
    offer, t, window = _offer_case(case, identities, store, links)
    issued = {i.robot_id: i.credential for i in identities}
    assert check_offer(offer, t, store, window, issued) == OFFER_CASES[case]


# -- the walk rule ------------------------------------------------------------------


def _walk_case(case, identities, store, links):
    """The owner's head for one row of the walk rule, over links the
    owner's own chain would hold; every row's head is at interval 3 or 4."""
    o, _, q = identities
    o2 = links["o2"]

    def signed(t, prev, signer=o, owner=OWNER, entries=()):
        prev_digest = GENESIS if prev is None else link_digest(prev)
        link = sign_link(signer, owner, EventList(interval=t, entries=entries), prev_digest)
        store.insert(link)
        return link

    if case == "clean":
        return signed(3, o2, entries=(_entry_case(None, identities, store, links),))
    if case == "bad-signature":
        uncertified = _entry_case("uncertified-credential", identities, store, links)
        # the forged link's own entry is skipped, the one below it is not
        return signed(3, signed(2, signed(1, None, entries=(uncertified,)), signer=q, entries=(uncertified,)))
    if case == "wrong-owner":
        return signed(3, signed(2, links["q1"], signer=q, owner=OTHER))
    if case == "missing-link":
        return signed(3, links["unstored"])
    if case == "digest-mismatch":
        head = signed(3, o2)
        store._links[link_digest(o2)] = links["unstored"]
        return head
    if case == "interval-gap":
        return signed(4, store.get(o2.prev_digest))
    if case == "late-start":
        return signed(4, signed(3, None))
    if case == "interval-order":
        return signed(3, signed(3, o2))
    raise AssertionError(case)


# case -> (verify_chain's refusal at full depth, audit failures, audit gaps)
WALK_CASES = {
    "clean": (None, (), ()),
    "bad-signature": (
        ("bad-signature", 2),
        ((OWNER, 2, "bad-signature"), (OWNER, 1, "uncertified-credential")),
        (),
    ),
    "wrong-owner": (("wrong-owner", 2), ((OWNER, 2, "wrong-owner"),), ()),
    "missing-link": (("missing-link", 2), ((OWNER, 2, "missing-link"),), ()),
    "digest-mismatch": (("digest-mismatch", 2), ((OWNER, 2, "digest-mismatch"),), ()),
    "interval-gap": (("interval-gap", 3), (), ((OWNER, 2, 3),)),
    "late-start": (None, (), ((OWNER, 1, 2),)),
    "interval-order": (("interval-order", 3), ((OWNER, 3, "interval-order"),), ()),
}


@pytest.mark.parametrize("case", WALK_CASES)
def test_verify_chain_and_the_audit_read_the_same_walk(case, refusal):
    """``verify_chain`` stops at the first finding but a late start; the
    audit reads on past a bad signature, stops where the walk stops, and
    files gaps and late starts as coverage gaps."""
    _, identities, store, links = _world()
    head = _walk_case(case, identities, store, links)
    issued = {i.robot_id: i.credential for i in identities}
    refused, failures, gaps = WALK_CASES[case]

    assert refusal(head, issued[OWNER], store, head.interval, issued) == refused

    audit = central_audit({OWNER: head}, store, issued, head.interval)
    assert (audit.verification_failures, audit.gaps) == (failures, gaps)


# -- the audit reads the claim index -------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_the_audit_matches_the_per_entry_audit_on_every_entry_row(case, reference_audit):
    """The audit takes each counted link's entry verdicts from the claim
    index; an audit that checks every entry itself agrees, on the owner's
    chain and on its peers' heads."""
    _, identities, store, links = _world()
    entry = _entry_case(case, identities, store, links)
    head = extend_history(identities[0], links["o2"], EventList(interval=T, entries=(entry,)), store)
    issued = {i.robot_id: i.credential for i in identities}
    # the digest-mismatch row rebinds the peer's head digest to another link
    peer_head = None if case == "entry-digest-mismatch" else links["p2"]
    heads = {OWNER: head, PEER: peer_head, OTHER: links["q1"]}
    assert central_audit(heads, store, issued, T) == reference_audit(heads, store, issued, T)


@pytest.mark.parametrize("case", WALK_CASES)
def test_the_audit_matches_the_per_entry_audit_on_every_walk_row(case, reference_audit):
    _, identities, store, links = _world()
    head = _walk_case(case, identities, store, links)
    issued = {i.robot_id: i.credential for i in identities}
    audit = central_audit({OWNER: head}, store, issued, head.interval)
    assert audit == reference_audit({OWNER: head}, store, issued, head.interval)


def test_the_audit_refuses_a_head_the_store_does_not_hold():
    _, identities, store, links = _world()
    issued = {i.robot_id: i.credential for i in identities}
    with pytest.raises(ValueError, match="not a counted link"):
        central_audit({PEER: links["unstored"]}, store, issued, 2)


def test_each_offer_is_checked_once_per_interval(monkeypatch):
    """On forge_n10 every giver's offer and every forger's forged offer is
    checked exactly once in each interval."""
    checked = Counter()

    def counting_check_offer(offer, t, *rest):
        checked[offer, t] += 1
        return check_offer(offer, t, *rest)

    monkeypatch.setattr(sim, "check_offer", counting_check_offer)
    config_path = Path(__file__).resolve().parent.parent / "configs" / "forge_n10.json"
    cfg = sim.SimConfig.from_dict(json.loads(config_path.read_text()))
    trace = sim.run_simulation(cfg)

    assert set(checked.values()) == {1}
    expected = Counter()
    for t in range(1, cfg.intervals + 1):
        exchanges = [x for x in trace.exchanges if x.interval == t]
        givers = {x.a for x in exchanges if x.a_gave} | {x.b for x in exchanges if x.b_gave}
        expected[t] = len(givers) + len(cfg.adversary_ids())
    assert Counter(t for _, t in checked) == expected
    assert any(note.startswith("forged-offer-rejected") for x in trace.exchanges for note in x.notes)


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
    reason = verify_chain(head, trace.credentials[PLANTER], trace.store, cfg.delta, trace.credentials)
    assert reason == "uncertified-credential"


def test_the_audit_matches_the_per_entry_audit_on_planted_entries(reference_audit):
    cfg = SimConfig(
        n=12, p=0.3, intervals=6, delta=3, alpha=0.1, seed=3,
        adversaries=(AdversaryProfile("disappear", frozenset({DISAPPEARED}), from_t=3, to_t=6),),
    )
    trace = _PlantingSimulation(cfg).run()
    for audited in (trace, SimTrace.from_json(trace.to_json())):
        audit = audit_trace(audited)
        assert any(reason == "uncertified-credential" for _, _, reason in audit.verification_failures)
        assert audit == reference_audit(audited.head_links(), audited.store, audited.credentials, cfg.intervals)


# -- the offered-entry rule: an accepted offer's entry is checked once ------------------


def _accepted_offer():
    """Robot 2's interval-1 link, offered at interval 2 and accepted, with
    its identity, its store and the issued credential table."""
    _, identities = provision_swarm(3, seed=77)
    issued = {i.robot_id: i.credential for i in identities}
    store = LinkStore()
    head = extend_history(identities[PEER - 1], None, EventList.empty(1), store)
    offer = offer_history(identities[PEER - 1], head)
    assert check_offer(offer, 2, store, 3, issued) is None
    return identities[PEER - 1], issued, store, offer


def test_an_accepted_offer_keeps_its_verdict_only_for_the_same_objects(monkeypatch):
    _, issued, store, offer = _accepted_offer()
    entry = offer_entry(offer)
    verifies = []

    def counting_verify(*args):
        verifies.append(args)
        return crypto.verify(*args)

    monkeypatch.setattr(chain, "verify", counting_verify)
    assert check_entry(entry, 2, store.get, dict(issued)) is None  # another table, the same objects
    assert verifies == []

    # Each object that differs sends the entry through the whole rule.
    copy = decode_link(encode_link(offer.link))
    assert check_entry(entry, 2, {link_digest(copy): copy}.get, issued) is None
    assert len(verifies) == 1
    assert check_entry(entry, 2, store.get, {**issued, PEER: replace(issued[PEER])}) is None
    assert len(verifies) == 2
    assert check_entry(entry, 3, store.get, issued) == "entry-interval-mismatch"
    assert check_entry(entry, 2, {}.get, issued) == "missing-entry-link"
    _, (stranger,) = provision_swarm(1, seed=78)
    assert check_entry(entry, 2, store.get, {**issued, PEER: stranger.credential}) == "uncertified-credential"


def test_a_refused_offer_and_a_decoded_entry_keep_no_verdict():
    identity, issued, store, offer = _accepted_offer()
    late = offer_history(identity, offer.link)
    assert check_offer(late, 4, store, 3, issued) == "entry-interval-mismatch"
    assert not hasattr(offer_entry(late), "_accepted")
    trace = sim.run_simulation(SimConfig(n=6, p=0.6, intervals=3, delta=3, seed=5))
    assert any(hasattr(e, "_accepted") for link in trace.store.links() for e in link.events.entries)
    loaded = SimTrace.from_json(trace.to_json())
    assert not any(hasattr(e, "_accepted") for link in loaded.store.links() for e in link.events.entries)


def _kept_verdict_traces():
    configs = Path(__file__).resolve().parent.parent / "configs"
    for path in sorted(configs.glob("*.json")):
        yield path.stem, lambda path=path: sim.run_simulation(SimConfig.from_dict(json.loads(path.read_text())))
    planting = SimConfig(
        n=12, p=0.3, intervals=6, delta=3, alpha=0.1, seed=3,
        adversaries=(AdversaryProfile("disappear", frozenset({DISAPPEARED}), from_t=3, to_t=6),),
    )
    yield "planting", lambda: _PlantingSimulation(planting).run()


_KEPT_VERDICT_TRACES = list(_kept_verdict_traces())


@pytest.mark.parametrize("make", [make for _, make in _KEPT_VERDICT_TRACES], ids=[n for n, _ in _KEPT_VERDICT_TRACES])
def test_kept_verdicts_agree_with_the_whole_rule(make):
    """On a simulated store, the claim index and every full walk read the
    same verdicts with the kept ones as with every entry checked again."""
    trace = make()
    entries = [e for link in trace.store.links() for e in link.events.entries]
    assert any(hasattr(e, "_accepted") for e in entries)

    def verdicts():
        index = ClaimIndex(trace.store, trace.credentials)
        accepted = index.entry_ok.tolist()
        walks = [
            list(walk_chain(trace.head_link(r), trace.credentials[r], trace.store, trace.credentials, None))
            for r in sorted(trace.heads)
            if trace.heads[r] is not None
        ]
        return accepted, walks

    with_kept = verdicts()
    for entry in entries:
        entry.__dict__.pop("_accepted", None)
    assert verdicts() == with_kept
