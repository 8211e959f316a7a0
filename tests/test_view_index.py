"""The closure index behind ``LocalView`` against the set-based views it
replaced.

``_SetView`` and ``_set_report`` below are the earlier per-view code,
kept as the reference: a view is the ``check_link``-verified part of a
recursively computed store closure, its claims are a fresh
``check_entry`` pass over its own links, and every detector works on
Python sets.  Every observer's and the central report must agree with
it, as dicts, on every shipped config and on hand-built traces that
exercise duplicate claims, refused links inside a closure and dangling
references.  The hostile-trace tests pin what the set code got wrong:
an interval used as a bit position, and recursion once per link.  The
audit, which reads the same index, must equal the audit that checks
every entry itself (the ``reference_audit`` fixture), and over every
report and the audit each entry is checked once, as the index is built.
"""
import json
import tracemalloc
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import pytest

from swarmchain import chain, detect
from swarmchain.chain import (
    GENESIS,
    EventList,
    LinkStore,
    build_event_list,
    check_entry,
    check_link,
    extend_history,
    link_digest,
    offer_entry,
    offer_history,
    sign_link,
)
from swarmchain.crypto import provision_swarm
from swarmchain.detect import (
    LocalView,
    PairingVerdict,
    SuspicionReport,
    audit_trace,
    compile_report,
    update_revocation,
)
from swarmchain.prob import pairing_threshold
from swarmchain.sim import SimConfig, SimTrace, run_simulation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DELTA_ALPHA_EPSILON = (3, 0.2, 0.05)


# -- reference: the set-based views -----------------------------------------------


def _closure(store, head, cache):
    """All stored digests reachable from ``head`` by previous-link and
    entry references; dangling references are absent."""
    if head in cache:
        return cache[head]
    link = store.get(head)
    if link is None:
        return frozenset()
    out = {head}
    for ref in (link.prev_digest, *(e.peer_link_digest for e in link.events.entries)):
        if ref != GENESIS:
            out |= _closure(store, ref, cache)
    cache[head] = frozenset(out)
    return cache[head]


@dataclass
class _SetView:
    observer: int | None
    as_of: int
    links: dict
    params: SimConfig
    credentials: dict = field(repr=False)

    @classmethod
    def from_trace(cls, trace, observer):
        head = trace.heads.get(observer)
        return cls._build(trace, observer, _closure(trace.store, head, {}) if head is not None else ())

    @classmethod
    def central(cls, trace):
        digests, cache = set(), {}
        for head in trace.heads.values():
            if head is not None:
                digests |= _closure(trace.store, head, cache)
        return cls._build(trace, None, digests)

    @classmethod
    def _build(cls, trace, observer, digests):
        links = {}
        for d in digests:
            link = trace.store.get(d)
            if link is not None and check_link(link, trace.credentials.get(link.owner_id)) is None:
                links[d] = link
        return cls(observer, trace.config.intervals, links, trace.config, dict(trace.credentials))

    @cached_property
    def claims(self):
        return frozenset(
            (link.owner_id, entry.peer_id, link.interval)
            for link in self.links.values()
            for entry in link.events.entries
            if check_entry(entry, link.interval, self.links.get, self.credentials) is None
        )

    @cached_property
    def owners_at(self):
        return frozenset((link.owner_id, link.interval) for link in self.links.values())

    @cached_property
    def evidence(self):
        seen = {}
        for robot, t in self.owners_at | {(b, t) for _, b, t in self.claims}:
            if seen.get(robot, 0) < t:
                seen[robot] = t
        return seen

    @cached_property
    def pairing(self):
        paired, unpaired, omissions, intervals = {}, {}, [], {}
        for a, b, t in self.claims:
            if (b, a, t) in self.claims:
                if a < b:
                    paired[a] = paired.get(a, 0) + 2
                    paired[b] = paired.get(b, 0) + 2
                    intervals.setdefault((a, b), set()).add(t)
                elif a == b:
                    paired[a] = paired.get(a, 0) + 1
            elif (b, t) in self.owners_at:
                unpaired[a] = unpaired.get(a, 0) + 1
                unpaired[b] = unpaired.get(b, 0) + 1
                omissions.append((a, b, t))
        return paired, unpaired, tuple(sorted(omissions)), intervals


def _set_report(view, delta, alpha, epsilon):
    n, p = view.params.n, view.params.p
    paired, unpaired, omissions, intervals = view.pairing
    window_start = view.as_of - delta + 1
    disappeared = frozenset(
        (r, view.evidence.get(r, 0))
        for r in range(1, n + 1)
        if r != view.observer and view.evidence.get(r, 0) < window_start
    )
    pairing = []
    for r in range(1, n + 1):
        if r == view.observer:
            continue
        good, bad = paired.get(r, 0) // 2, unpaired.get(r, 0)
        if good == 0 and bad == 0:
            verdict = PairingVerdict("indeterminate", 0, 0, 0)
        else:
            threshold = pairing_threshold(n, p, alpha)
            status = "trusted" if bad == 0 or good >= threshold else "suspicious"
            verdict = PairingVerdict(status, good, bad, threshold)
        pairing.append((r, verdict))
    suspects = set()
    for pair, ts in intervals.items():
        run = best = 0
        for t in range(max(1, view.as_of - delta + 1), view.as_of + 1):
            run = run + 1 if t in ts else 0
            best = max(best, run)
        if best >= 1 and p**best < epsilon:
            suspects.add((pair, best))
    report = SuspicionReport(
        observer=view.observer,
        as_of=view.as_of,
        disappeared=disappeared,
        unpaired_claims=omissions,
        collusion_suspects=frozenset(suspects),
        pairing=tuple(pairing),
    )
    report.revoked = update_revocation(report)
    return report


def _assert_views_match(paired_intervals, trace, delta=3, alpha=0.2, epsilon=0.05):
    """Every observer's and the central view and report equal the reference."""
    pairs = [(LocalView.central(trace), _SetView.central(trace))] + [
        (LocalView.from_trace(trace, r), _SetView.from_trace(trace, r)) for r in sorted(trace.heads)
    ]
    for view, reference in pairs:
        assert view.links == reference.links, view.observer
        assert view.claims == reference.claims, view.observer
        assert view.evidence == reference.evidence, view.observer
        assert paired_intervals(view) == reference.pairing[3], view.observer
        assert (
            compile_report(view, delta, alpha, epsilon).to_dict()
            == _set_report(reference, delta, alpha, epsilon).to_dict()
        ), view.observer


# -- every shipped config -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIGS.glob("*.json")))
def test_reports_match_the_set_views_on_every_config(name, paired_intervals):
    config = SimConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    trace = run_simulation(config)
    _assert_views_match(paired_intervals, trace, config.delta, config.alpha)
    _assert_views_match(paired_intervals, SimTrace.from_json(trace.to_json()), config.delta, config.alpha)


@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIGS.glob("*.json")))
def test_the_audit_matches_the_per_entry_audit_on_every_config(name, reference_audit, paired_intervals):
    """Audited after every view (as ``analyze`` does) and on a fresh load,
    before any view; the per-entry audit agrees with both."""
    config = SimConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    trace = run_simulation(config)
    text = trace.to_json()
    _assert_views_match(paired_intervals, trace, config.delta, config.alpha)
    for audited in (trace, SimTrace.from_json(text)):
        expected = reference_audit(audited.head_links(), audited.store, audited.credentials, config.intervals)
        assert audit_trace(audited) == expected


ENTRY_REASONS = {
    "entry-credential-mismatch",
    "uncertified-credential",
    "bad-entry-signature",
    "missing-entry-link",
    "entry-digest-mismatch",
    "entry-owner-mismatch",
    "entry-interval-mismatch",
}


def _counted_entries(index):
    return sum(len(link.events.entries) for link, bit in zip(index.links, index.bits(-1).tolist()) if bit)


@pytest.mark.parametrize("name", ["collusion_n25", "forge_n10"])
def test_each_entry_is_checked_once_across_every_report_and_the_audit(name, monkeypatch):
    """Over every observer report, the central report and the audit of a
    loaded trace, ``check_entry`` runs once per entry of a counted link and
    once more per entry the audit refuses, for its reason."""
    config = SimConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    trace = SimTrace.from_json(run_simulation(config).to_json())
    calls = []

    def counting_check_entry(entry, t, resolve, credentials):
        calls.append(entry)
        return check_entry(entry, t, resolve, credentials)

    monkeypatch.setattr(detect, "check_entry", counting_check_entry)
    monkeypatch.setattr(chain, "check_entry", counting_check_entry)
    for robot in sorted(trace.heads):
        if trace.heads[robot] is not None:
            compile_report(LocalView.from_trace(trace, robot), *DELTA_ALPHA_EPSILON)
    central = LocalView.central(trace)
    compile_report(central, *DELTA_ALPHA_EPSILON)
    audit = audit_trace(trace)

    index = central.index
    assert index.bits(central.mask).tolist() == index.bits(-1).tolist()  # every counted link is in view
    refused = [reason for _, _, reason in audit.verification_failures if reason in ENTRY_REASONS]
    assert len(calls) == _counted_entries(index) + len(refused)
    assert len(calls) - len(set(map(id, calls))) == len(refused)
    assert (len(refused) > 0) == (name == "forge_n10")


@pytest.mark.parametrize("name", ["framing_n25", "forge_n10"])
def test_the_index_checks_every_entry_as_it_is_built_and_no_report_checks_one(name, monkeypatch):
    """Building a loaded trace's claim index runs ``check_entry`` once per
    entry of a counted link; every report after that runs it zero times."""
    config = SimConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    trace = SimTrace.from_json(run_simulation(config).to_json())
    calls = []

    def counting_check_entry(entry, t, resolve, credentials):
        calls.append(entry)
        return check_entry(entry, t, resolve, credentials)

    monkeypatch.setattr(detect, "check_entry", counting_check_entry)
    monkeypatch.setattr(chain, "check_entry", counting_check_entry)
    index = detect._claim_index(trace.store, trace.credentials)
    assert len(calls) == len(set(map(id, calls))) == _counted_entries(index) > 0
    built = len(calls)
    for robot in sorted(trace.heads):
        if trace.heads[robot] is not None:
            compile_report(LocalView.from_trace(trace, robot), *DELTA_ALPHA_EPSILON)
    compile_report(LocalView.central(trace), *DELTA_ALPHA_EPSILON)
    assert len(calls) == built


# -- hand-built traces -----------------------------------------------------------------


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


def _fork():
    """Robot 1 signs two links for interval 1 and shows one to robot 2 and
    the other to robot 3; returns the trace and the two links."""
    central, identities = provision_swarm(3, seed=5)
    one, two, three = identities
    store = LinkStore()
    genesis_two = offer_history(two, None)
    first = extend_history(one, None, build_event_list(1, [genesis_two]), store)
    second = sign_link(one, 1, build_event_list(1, [genesis_two, offer_history(three, None)]), GENESIS)
    store.insert(second)
    t1 = extend_history(two, None, build_event_list(1, [offer_history(one, None)]), store)
    t2 = extend_history(two, t1, build_event_list(2, [offer_history(one, first)]), store)
    h2 = extend_history(three, None, EventList.empty(1), store)
    h3 = extend_history(three, h2, build_event_list(2, [offer_history(one, second)]), store)
    return _trace(central, identities, store, {1: first, 2: t2, 3: h3}, 2), first, second


def test_two_links_by_one_owner_for_one_interval_collapse_their_claims(paired_intervals):
    trace, first, second = _fork()
    central_view = LocalView.central(trace)
    assert first in central_view.links.values() and second in central_view.links.values()
    assert len(central_view.index.entry_claim) > len(central_view.claims)  # (1, 2, 1) twice, one claim
    assert (1, 2, 1) in central_view.claims and (1, 3, 1) in central_view.claims
    _assert_views_match(paired_intervals, trace, 2)
    alone = LinkStore()
    for link in central_view.links.values():
        alone.insert(link)
    alone_view = LocalView.central(replace(trace, store=alone))
    assert alone_view.claims == central_view.claims


def test_the_audit_matches_the_per_entry_audit_on_a_fork(reference_audit):
    trace, _, _ = _fork()
    for audit_first in (True, False):
        loaded = SimTrace.from_json(trace.to_json())
        if not audit_first:
            compile_report(LocalView.central(loaded), 2, 0.2, 0.05)
        audit = audit_trace(loaded)
        assert audit == reference_audit(loaded.head_links(), loaded.store, loaded.credentials, 2)
        # the audit walks only the branch robot 1 handed in; (1, 3, 1) is on the other one
        assert audit.encounters == {(1, 2, 1)} and audit.unpaired_claims == ((2, 1, 2), (3, 1, 2))


def test_a_refused_link_keeps_its_references_in_the_closure(paired_intervals):
    central, identities = provision_swarm(3, seed=6)
    one, two, three = identities
    store = LinkStore()
    o1 = extend_history(one, None, EventList.empty(1), store)
    w1 = extend_history(two, None, EventList.empty(1), store)
    # robot 1's interval-2 link, signed with robot 3's key: bad-signature
    bad = sign_link(three, 1, build_event_list(2, [offer_history(two, w1)]), link_digest(o1))
    store.insert(bad)
    assert check_link(bad, one.credential) == "bad-signature"
    h1 = extend_history(three, None, EventList.empty(1), store)
    h2 = extend_history(three, h1, EventList.empty(2), store)
    h3 = extend_history(three, h2, build_event_list(3, [offer_history(one, bad)]), store)
    trace = _trace(central, identities, store, {1: bad, 2: w1, 3: h3}, 3)

    view = LocalView.from_trace(trace, 3)
    assert bad not in view.links.values()
    assert w1 in view.links.values()  # reachable only through the refused link
    assert view.evidence[2] == 1 and (3, 1, 3) not in view.claims
    _assert_views_match(paired_intervals, trace)


def test_a_dangling_reference_adds_nothing(paired_intervals):
    central, identities = provision_swarm(2, seed=7)
    one, two = identities
    store = LinkStore()
    unstored = sign_link(two, 2, build_event_list(1, [offer_history(one, None)]), GENESIS)
    o1 = extend_history(one, None, EventList.empty(1), store)
    o2 = extend_history(one, o1, build_event_list(2, [offer_history(two, unstored)]), store)
    w1 = extend_history(two, None, EventList.empty(1), store)
    trace = _trace(central, identities, store, {1: o2, 2: w1}, 2)

    view = LocalView.from_trace(trace, 1)
    assert set(view.links.values()) == {o1, o2}
    assert view.claims == frozenset()
    _assert_views_match(paired_intervals, trace, 2)


def test_an_empty_view_reports_everyone_disappeared(paired_intervals):
    central, identities = provision_swarm(3, seed=9)
    view = LocalView.central(_trace(central, identities, LinkStore(), {1: None, 2: None, 3: None}, 3))
    report = compile_report(view, *DELTA_ALPHA_EPSILON)
    assert view.claims == frozenset() and view.evidence == {} and paired_intervals(view) == {}
    assert report.disappeared == {(1, 0), (2, 0), (3, 0)} and report.revoked == {1, 2, 3}


# -- hostile traces ----------------------------------------------------------------


def test_a_hostile_interval_costs_no_memory(paired_intervals):
    """Two validly signed links at interval 2**32 - 1 record each other's
    genesis signatures.  The set views kept the pair's paired intervals
    as the bitmask 1 << t, half a gigabyte here."""
    big = 2**32 - 1
    central, identities = provision_swarm(2, seed=8)
    one, two = identities
    store = LinkStore()
    heads = {}
    for me, other in ((one, two), (two, one)):
        events = EventList(interval=big, entries=(offer_entry(offer_history(other, None)),))
        heads[me.robot_id] = sign_link(me, me.robot_id, events, GENESIS)
        store.insert(heads[me.robot_id])
    trace = _trace(central, identities, store, heads, 3)
    trace = SimTrace.from_json(trace.to_json())

    tracemalloc.start()
    try:
        view = LocalView.central(trace)
        report = compile_report(view, *DELTA_ALPHA_EPSILON)
        intervals = paired_intervals(view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert intervals == {(1, 2): {big}}
    assert view.evidence == {1: big, 2: big}
    assert report.collusion_suspects == frozenset()


def test_a_long_valid_trace_builds_views_and_reports():
    """One closure step per link used to recurse; 1000 intervals overflowed."""
    trace = run_simulation(SimConfig(n=3, p=0.5, intervals=1000, delta=3, seed=1))
    for observer in (None, 1, 2, 3):
        view = LocalView.central(trace) if observer is None else LocalView.from_trace(trace, observer)
        assert len(view.links) >= 999
        report = compile_report(view, *DELTA_ALPHA_EPSILON)
        assert report.as_of == 1000 and not report.unpaired_claims
