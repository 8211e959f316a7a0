"""The entry rule as columns (``chain.indexed_entry_rule``, which fills
``ClaimIndex.entry_ok``) against the per-entry rule it replaces in the
index, ``check_entry`` resolving through the store.

They must agree on every entry of every counted link: on every shipped
config and the planting simulation, generated (entries carry the kept
verdicts of ``check_offer``) and loaded from JSON (none do); on every
row of the entry rule, and on the two rows that tell steps 3 and 5 apart
from the rest; on a fork; and under a credential table that issues one
robot's credential for another robot's id.
"""
from dataclasses import replace

import pytest

from swarmchain.chain import GENESIS, EventEntry, check_entry, extend_history, link_digest, offer_history
from swarmchain.crypto import sign
from swarmchain.detect import ClaimIndex
from swarmchain.sim import SimConfig, SimTrace, run_simulation
from test_entry_rule import _KEPT_VERDICT_TRACES, CASES, OWNER, PEER, T, _entry_case, _world
from test_view_index import _fork


def _assert_columns_match(store, credentials):
    """``entry_ok`` equals ``check_entry`` on each entry of each counted
    link, in index order; returns the verdicts."""
    index = ClaimIndex(store, credentials)
    counted = [link for link, bit in zip(index.links, index.bits(-1).tolist()) if bit]
    expected = [
        check_entry(e, link.interval, store.get, credentials) is None for link in counted for e in link.entries
    ]
    assert index.entry_ok.tolist() == expected
    return expected


@pytest.mark.parametrize("make", [make for _, make in _KEPT_VERDICT_TRACES], ids=[n for n, _ in _KEPT_VERDICT_TRACES])
def test_the_columns_agree_with_check_entry_on_every_config(make):
    trace = make()
    for checked in (trace, SimTrace.from_json(trace.to_json())):
        verdicts = _assert_columns_match(checked.store, checked.credentials)
        assert any(verdicts)


@pytest.mark.parametrize("case", CASES)
def test_the_columns_agree_with_check_entry_on_every_entry_rule_row(case):
    _, identities, store, links = _world()
    entry = _entry_case(case, identities, store, links)
    extend_history(identities[OWNER - 1], links["o2"], T, (entry,), store)
    issued = {i.robot_id: i.credential for i in identities}
    assert _assert_columns_match(store, issued)[-1] == (case is None)


def test_the_columns_refuse_a_reference_rebound_to_another_link():
    """Step 5 on its own: the store holds, at the peer's interval-2
    address, another counted interval-2 link of the peer's, and the entry
    carries that link's signature, so steps 6-8 alone would accept it."""
    _, identities, store, links = _world()
    owner, peer, _ = identities
    rebound = links["unstored"]
    store._links[link_digest(links["p2"])] = rebound
    entry = replace(offer_history(peer, links["p2"]).entry, peer_signature=rebound.signature)
    extend_history(owner, links["o2"], T, (entry,), store)
    issued = {i.robot_id: i.credential for i in identities}
    assert check_entry(entry, T, store.get, issued) == "entry-digest-mismatch"
    assert _assert_columns_match(store, issued)[-1] is False


def test_a_genesis_reference_stays_genesis_where_the_store_holds_a_link_at_it():
    """Step 3 comes before step 4: a genesis entry is checked by its
    signature even if a hostile store resolves the genesis digest."""
    _, identities, store, links = _world()
    owner, peer, _ = identities
    store._links[GENESIS] = links["p1"]
    entry = offer_history(peer, None).entry
    extend_history(owner, links["o2"], T, (entry,), store)
    issued = {i.robot_id: i.credential for i in identities}
    assert check_entry(entry, T, store.get, issued) is None
    assert _assert_columns_match(store, issued)[-1] is True


def test_the_columns_agree_with_check_entry_on_a_fork():
    trace, _, _ = _fork()
    for checked in (trace, SimTrace.from_json(trace.to_json())):
        assert all(_assert_columns_match(checked.store, checked.credentials))


def test_the_columns_refuse_a_credential_issued_under_another_robots_id():
    """Robot 3's credential, issued in robot 2's place, does not make an
    entry for peer 2 carrying it count: step 1 refuses it although the
    credential is the table's own object and its genesis signature
    verifies under it."""
    _, identities, store, links = _world()
    owner, _, other = identities
    swapped = {i.robot_id: i.credential for i in identities}
    swapped[PEER] = other.credential
    entry = EventEntry(PEER, GENESIS, sign(other, GENESIS), other.credential)
    head = extend_history(owner, links["o2"], T, (entry,), store)
    assert check_entry(entry, T, store.get, swapped) == "entry-credential-mismatch"
    assert _assert_columns_match(store, swapped)[-1] is False
    linked = replace(entry, peer_link_digest=link_digest(links["q1"]), peer_signature=links["q1"].signature)
    extend_history(owner, head, T + 1, (linked,), store)
    assert _assert_columns_match(store, swapped)[-1] is False

    trace = run_simulation(SimConfig(n=6, p=0.6, intervals=3, delta=3, seed=5))
    for checked in (trace, SimTrace.from_json(trace.to_json())):
        table = {**checked.credentials, 2: checked.credentials[3]}
        verdicts = _assert_columns_match(checked.store, table)
        assert any(verdicts) and not all(verdicts)
