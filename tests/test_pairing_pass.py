"""The one pass per view behind the pairing detectors, and the per-trace
claim index behind ``LocalView.claims``.

The pairing tallies, ``unpaired_claims()``, the paired intervals of the
tally and the pairing verdicts of ``compile_report`` are compared with a
per-subject reference that rescans every claim for each subject.  The
index is compared with a fresh ``check_entry`` pass over each view's own
links.
"""
import copy
import json
from dataclasses import replace
from pathlib import Path

import pytest

from swarmchain.chain import (
    GENESIS,
    LinkStore,
    build_event_list,
    check_entry,
    encode_link,
    decode_link,
    extend_history,
    link_digest,
    offer_history,
    sign_link,
)
from swarmchain.crypto import provision_swarm
from swarmchain.detect import PAIRING_STATUS, LocalView, compile_report
from swarmchain.prob import pairing_threshold
from swarmchain.sim import SimConfig, SimTrace, run_simulation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ADVERSARIAL = ("framing_n25", "collusion_n25", "forge_n10", "disappearance_n25")


# -- reference: every subject rescans every claim ------------------------------------


def _owners_at(view):
    return {(link.owner_id, link.interval) for link in view.links.values()}


def _reference_counts(claims, owners_at, subject):
    """Paired (both directions, before halving) and unpaired claims naming ``subject``."""
    paired = unpaired = 0
    for a, b, t in claims:
        if subject not in (a, b):
            continue
        if (b, a, t) in claims:
            paired += 1
        elif (b, t) in owners_at:
            unpaired += 1
    return paired, unpaired


def _reference_verdict(claims, owners_at, subject, threshold):
    paired, unpaired = _reference_counts(claims, owners_at, subject)
    paired //= 2
    if paired == 0 and unpaired == 0:
        return {"status": "indeterminate", "paired": 0, "unpaired": 0}
    status = "trusted" if unpaired == 0 or paired >= threshold else "suspicious"
    return {"status": status, "paired": paired, "unpaired": unpaired}


def _reference_unpaired(claims, owners_at):
    return tuple(sorted((a, b, t) for (a, b, t) in claims if (b, a, t) not in claims and (b, t) in owners_at))


def _reference_intervals(claims):
    out = {}
    for a, b, t in claims:
        if a < b and (b, a, t) in claims:
            out.setdefault((a, b), set()).add(t)
    return out


def _tallied(view, subject):
    """The pass's paired and unpaired counts for ``subject``: its slot in
    the tally arrays over the index's dense robot numbers, or the last
    slot, always 0, for a robot the index does not hold."""
    robots = view.index.robot_ids
    slot = robots.index(subject) if subject in robots else -1
    tally = view._pairing
    return int(tally.paired[slot]), int(tally.unpaired[slot])


def _verdicts(report):
    """robot -> the status name and counts of its row in ``report``'s
    pairing columns; a report has no row for its own observer."""
    return {
        robot: {"status": PAIRING_STATUS[status], "paired": paired, "unpaired": unpaired}
        for robot, status, paired, unpaired in zip(*report.pairing)
    }


def _assert_pass_matches_reference(view, alpha, paired_intervals):
    claims, owners_at = view.claims, _owners_at(view)
    n, p = view.params.n, view.params.p
    report = compile_report(view, view.params.delta, alpha, 0.05)
    assert report.threshold == pairing_threshold(n, p, alpha)
    verdicts = _verdicts(report)
    assert list(verdicts) == sorted(set(range(1, n + 1)) - {view.observer})
    for subject in range(1, n + 1):
        assert _tallied(view, subject) == _reference_counts(claims, owners_at, subject), subject
        if subject != view.observer:
            assert verdicts[subject] == _reference_verdict(claims, owners_at, subject, report.threshold), subject
    assert view.unpaired_claims() == _reference_unpaired(claims, owners_at)
    assert paired_intervals(view) == _reference_intervals(claims)


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_one_pass_matches_per_subject_reference(name, paired_intervals):
    config = SimConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    trace = run_simulation(config)
    views = [LocalView.central(trace)] + [
        LocalView.from_trace(trace, r) for r in range(1, config.n + 1) if trace.heads.get(r) is not None
    ]
    for view in views:
        _assert_pass_matches_reference(view, config.alpha, paired_intervals)
    # the adversaries leave something for the pass to find
    central = views[0]
    assert central.unpaired_claims() or paired_intervals(central)


def _signed_link(identity, t, prev, entries):
    """A link signed by ``identity`` with no check on what its entries name."""
    prev_digest = GENESIS if prev is None else link_digest(prev)
    return sign_link(identity, identity.credential.robot_id, t, tuple(entries), prev_digest)


def _trace(central, identities, store, heads, intervals):
    return SimTrace(
        config=SimConfig(n=len(identities), p=0.5, intervals=intervals, delta=intervals, seed=0),
        central_verify_key=central,
        credentials={i.credential.robot_id: i.credential for i in identities},
        graphs=(),
        heads={r: (None if h is None else link_digest(h)) for r, h in heads.items()},
        store=store,
        exchanges=(),
    )


def test_self_claim_counts_once_toward_its_owner(paired_intervals):
    central, identities = provision_swarm(2, seed=31)
    a, b = identities
    store = LinkStore()
    a1 = extend_history(a, None, 1, (), store)
    b1 = extend_history(b, None, 1, (), store)
    # robot 1 records itself next to a real meeting with robot 2
    a2 = _signed_link(a, 2, a1, [offer_history(a, a1).entry, offer_history(b, b1).entry])
    store.insert(a2)
    b2 = extend_history(b, b1, 2, build_event_list([offer_history(a, a1)]), store)
    view = LocalView.central(_trace(central, identities, store, {1: a2, 2: b2}, 2))

    assert view.claims == {(1, 1, 2), (1, 2, 2), (2, 1, 2)}
    assert _tallied(view, 1) == (3, 0)  # (1,1,2) once, (1,2,2) and (2,1,2) once each
    assert _tallied(view, 2) == (2, 0)
    verdicts = _verdicts(compile_report(view, view.params.delta, 0.0, 0.05))
    assert verdicts[1]["paired"] == 1
    assert verdicts[2]["paired"] == 1
    assert view.unpaired_claims() == ()
    assert paired_intervals(view) == {(1, 2): {2}}
    _assert_pass_matches_reference(view, 0.0, paired_intervals)


# -- the claim index ------------------------------------------------------------------


def _fresh_claims(view, credentials):
    return frozenset(
        (link.owner_id, entry.peer_id, link.interval)
        for link in view.links.values()
        for entry in link.entries
        if check_entry(entry, link.interval, view.links.get, credentials) is None
    )


def _hostile_world():
    """Robots 1 and 3 meet in every interval; robot 2's only link carries a
    signature of robot 3's, and robot 1's interval-2 link records it."""
    central, identities = provision_swarm(3, seed=1618)
    one, two, three = identities
    store = LinkStore()
    o1 = extend_history(one, None, 1, (), store)
    q1 = extend_history(three, None, 1, (), store)
    forged = sign_link(three, 2, 1, (), GENESIS)
    store.insert(forged)
    o2 = extend_history(one, o1, 2, (offer_history(two, forged).entry, offer_history(three, q1).entry), store)
    q2 = extend_history(three, q1, 2, build_event_list([offer_history(one, o1)]), store)
    o3 = extend_history(one, o2, 3, build_event_list([offer_history(three, q2)]), store)
    q3 = extend_history(three, q2, 3, build_event_list([offer_history(one, o2)]), store)
    trace = _trace(central, identities, store, {1: o3, 2: forged, 3: q3}, 3)
    return trace, {"o2": o2, "q1": q1, "forged": forged}


def _all_views(trace, central_first):
    observers = [LocalView.from_trace(trace, r) for r in sorted(trace.heads)]
    central = LocalView.central(trace)
    return [central, *observers] if central_first else [*observers, central]


@pytest.mark.parametrize("central_first", [True, False])
def test_shared_memo_matches_a_fresh_pass_per_view(central_first):
    trace, links = _hostile_world()
    (forged_entry,) = [e for e in links["o2"].entries if e.peer_id == 2]
    # the two ways to resolve disagree on the reason, and both refuse
    assert check_entry(forged_entry, 2, trace.store.get, trace.credentials) == "bad-entry-signature"
    central = LocalView.central(trace)
    assert check_entry(forged_entry, 2, central.links.get, trace.credentials) == "missing-entry-link"

    views = _all_views(trace, central_first)
    for view in views:
        assert view.claims == _fresh_claims(view, trace.credentials)
        assert view.index is central.index
        assert (1, 2, 2) not in view.claims
    assert (1, 3, 2) in central.claims
    assert central.index.links == list(trace.store.links())  # each stored link's entries checked once


def _tampered_store(store, victim):
    """The tamper pattern of ``test_tampered_stored_link_is_found``."""
    blob = bytearray(encode_link(victim))
    blob[9] ^= 0x20
    tampered = copy.copy(store)
    tampered._links = dict(store._links)
    tampered._links[link_digest(victim)] = decode_link(bytes(blob))
    return tampered


def test_traces_never_share_memo_entries():
    trace, links = _hostile_world()
    before = LocalView.central(trace)
    assert (1, 3, 2) in before.claims

    tampered = _tampered_store(trace.store, links["q1"])
    replaced = replace(trace, store=tampered)
    copied = copy.copy(trace)
    copied.store = tampered
    for other in (replaced, copied):
        for view in _all_views(other, central_first=True):
            assert view.index is not before.index
            assert view.claims == _fresh_claims(view, other.credentials)
            assert (1, 3, 2) not in view.claims
    assert LocalView.central(trace).claims == before.claims

    text = trace.to_json()
    first, second = SimTrace.from_json(text), SimTrace.from_json(text)
    assert LocalView.central(first).index is not LocalView.central(second).index
