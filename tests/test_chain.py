import copy
import dataclasses
import json
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmchain import chain
from swarmchain.chain import (
    GENESIS,
    EncodingError,
    EventEntry,
    HistoryLink,
    LinkStore,
    build_event_list,
    canonical_encode,
    check_entry,
    decode_link,
    encode_link,
    extend_history,
    link_digest,
    offer_history,
    sign_link,
    signed_digest,
    verify_chain,
)
from swarmchain.crypto import Credential, digest, provision_swarm
from swarmchain.detect import LocalView
from swarmchain.sim import SimConfig, SimTrace, TraceError, run_simulation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _entry_for(identity, head):
    """Entry witnessing `identity` with its current head (or genesis)."""
    return offer_history(identity, head).entry


def _issued(identities):
    """The credential table central control issued to ``identities``."""
    return {i.robot_id: i.credential for i in identities}


def _grow_pairwise(identities, store, intervals):
    """All robots meet everyone each interval; returns heads by robot id."""
    heads = {i.robot_id: None for i in identities}
    for t in range(1, intervals + 1):
        offers = {i.robot_id: offer_history(i, heads[i.robot_id]) for i in identities}
        new_heads = {}
        for me in identities:
            peer_offers = [offers[other.robot_id] for other in identities if other is not me]
            entries = build_event_list(peer_offers)
            new_heads[me.robot_id] = extend_history(me, heads[me.robot_id], t, entries, store)
        heads = new_heads
    return heads


# -- canonical encoding -----------------------------------------------------


def test_canonical_encode_is_order_independent(swarm5):
    """The order of the offers never reaches the bytes: build_event_list
    puts the entries in peer order, and HistoryLink refuses any other."""
    _, identities = swarm5
    offers = [offer_history(identity, None) for identity in identities]
    expected = canonical_encode(1, build_event_list(offers), GENESIS)
    rng = random.Random(5)
    for _ in range(20):
        rng.shuffle(offers)
        entries = build_event_list(offers)
        assert [e.peer_id for e in entries] == [1, 2, 3, 4, 5]
        assert canonical_encode(1, entries, GENESIS) == expected
    two, three = _entry_for(identities[1], None), _entry_for(identities[2], None)
    for entries, after in (((three, two), 3), ((two, two), 2), ((two, three, two), 3)):
        with pytest.raises(ValueError, match=f"entry for peer 2 after peer {after}"):
            HistoryLink(owner_id=1, interval=1, entries=entries, prev_digest=GENESIS, signature=b"")


def test_genesis_empty_payload_bytes_are_pinned():
    payload = canonical_encode(1, (), GENESIS)
    assert payload == b"E1" + struct.pack(">I", 1) + b"\x00" * 32 + struct.pack(">I", 0)


def test_canonical_encode_injective_over_random_corpus(swarm5):
    _, identities = swarm5
    rng = random.Random(2718)
    base_entries = [_entry_for(i, None) for i in identities]
    seen = {}
    for _ in range(100_000):
        t = rng.randint(1, 500)
        prev = rng.randbytes(32)
        chosen = sorted(rng.sample(base_entries, rng.randint(0, len(base_entries))), key=lambda e: e.peer_id)
        key = (t, prev, frozenset(e.peer_id for e in chosen))
        blob = canonical_encode(t, tuple(chosen), prev)
        if blob in seen:
            assert seen[blob] == key
        else:
            seen[blob] = key


def test_peer_id_difference_changes_bytes(swarm5):
    _, identities = swarm5
    e1 = _entry_for(identities[1], None)
    e2 = EventEntry(
        peer_id=identities[3].robot_id,
        peer_link_digest=e1.peer_link_digest,
        peer_signature=e1.peer_signature,
        peer_credential=identities[3].credential,
    )
    a = canonical_encode(1, (e1,), GENESIS)
    b = canonical_encode(1, (e2,), GENESIS)
    assert a != b


def _layout_payload(entries, t, prev):
    """The canonical payload of the module docstring, field by field."""
    parts = [b"E1", struct.pack(">I", t), prev, struct.pack(">I", len(entries))]
    for entry in entries:
        cred = entry.peer_credential
        parts.append(struct.pack(">I", entry.peer_id))
        parts.append(entry.peer_link_digest)
        parts.append(struct.pack(">H", len(entry.peer_signature)))
        parts.append(entry.peer_signature)
        parts.append(struct.pack(">I", cred.robot_id))
        parts.append(struct.pack(">H", len(cred.verify_key)))
        parts.append(cred.verify_key)
        parts.append(struct.pack(">H", len(cred.cert)))
        parts.append(cred.cert)
    return b"".join(parts)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
def test_canonical_encode_follows_the_layout_on_every_stored_link(path):
    """Simulated links (entries shared between receivers, bytes cached) and
    the same links loaded from JSON (nothing cached) encode as the layout."""
    trace = run_simulation(SimConfig.from_dict(json.loads(path.read_text())))
    loaded = SimTrace.from_json(trace.to_json())
    assert len(loaded.store) == len(trace.store)
    for store in (trace.store, loaded.store):
        for link in store.links():
            expected = _layout_payload(link.entries, link.interval, link.prev_digest)
            assert canonical_encode(link.interval, link.entries, link.prev_digest) == expected
            assert encode_link(link)[6 : 6 + len(expected)] == expected


_blobs = st.integers(0, 300).flatmap(lambda size: st.binary(min_size=size, max_size=size))
_entries = st.builds(
    EventEntry,
    peer_id=st.integers(0, 2**32 - 1),
    peer_link_digest=st.binary(min_size=32, max_size=32),
    peer_signature=_blobs,
    peer_credential=st.builds(Credential, robot_id=st.integers(0, 2**32 - 1), verify_key=_blobs, cert=_blobs),
)


@settings(max_examples=200, deadline=None)
@given(
    t=st.integers(1, 2**32 - 1),
    prev=st.binary(min_size=32, max_size=32),
    entries=st.lists(_entries, max_size=6, unique_by=lambda entry: entry.peer_id),
)
def test_canonical_encode_follows_the_layout_on_any_event_list(t, prev, entries):
    entries = tuple(sorted(entries, key=lambda e: e.peer_id))
    expected = _layout_payload(entries, t, prev)
    assert canonical_encode(t, entries, prev) == expected
    assert canonical_encode(t, entries, prev) == expected  # from the cached entry bytes


def test_receivers_share_one_entry_per_offer(swarm5):
    _, identities = swarm5
    offer = offer_history(identities[0], None)
    lists = [build_event_list([offer]) for _ in range(3)]
    assert {id(entries[0]) for entries in lists} == {id(offer.entry)}


def test_canonical_encode_refuses_a_digest_of_another_length(swarm5):
    _, identities = swarm5
    entry = dataclasses.replace(_entry_for(identities[1], None), peer_link_digest=b"\x00" * 31)
    with pytest.raises(ValueError):
        canonical_encode(1, (entry,), GENESIS)
    with pytest.raises(ValueError):
        canonical_encode(1, (), b"\x00" * 33)


def test_link_encoding_roundtrip(swarm5):
    _, identities = swarm5
    store = LinkStore()
    heads = _grow_pairwise(identities, store, 3)
    for head in heads.values():
        decoded = decode_link(encode_link(head))
        assert decoded == head
        assert link_digest(decoded) == link_digest(head)


def test_decode_rejects_truncations(swarm5):
    _, identities = swarm5
    store = LinkStore()
    heads = _grow_pairwise(identities, store, 2)
    blob = encode_link(heads[1])
    for cut in range(len(blob)):
        with pytest.raises(EncodingError):
            decode_link(blob[:cut])


def test_decode_rejects_trailing_bytes(swarm5):
    _, identities = swarm5
    store = LinkStore()
    link = extend_history(identities[0], None, 1, (), store)
    with pytest.raises(EncodingError):
        decode_link(encode_link(link) + b"\x00")


@pytest.fixture(scope="module")
def config_traces():
    """The simulated trace of every shipped config."""
    return [
        run_simulation(SimConfig.from_dict(json.loads(path.read_text())))
        for path in sorted(CONFIGS.glob("*.json"))
    ]


def _encoded_with_entries(link, entries, interval=None):
    """``encode_link(link)`` with ``entries`` in place of its entries, in that
    order, and ``interval`` (if given) in place of its interval."""
    payload = _layout_payload(entries, link.interval if interval is None else interval, link.prev_digest)
    return b"L1" + struct.pack(">I", link.owner_id) + payload + struct.pack(">H", len(link.signature)) + link.signature


def test_decode_link_refuses_entries_out_of_peer_order(honest_trace_25):
    """Two entries swapped, or one peer repeated, is refused as an
    EncodingError, and a trace holding such a link at ``links[i]``."""
    doc = honest_trace_25.to_dict()
    links = [decode_link(bytes.fromhex(text)) for text in doc["links"]]
    i, link = next((i, link) for i, link in enumerate(links) if len(link.entries) >= 2)
    first, second, *rest = link.entries
    assert decode_link(_encoded_with_entries(link, (first, second, *rest))) == link
    for entries in ((second, first, *rest), (first, first, *rest)):
        blob = _encoded_with_entries(link, entries)
        with pytest.raises(EncodingError, match=f"entry for peer {first.peer_id} after peer"):
            decode_link(blob)
        with pytest.raises(TraceError) as err:
            SimTrace.from_dict({**doc, "links": [*doc["links"][:i], blob.hex(), *doc["links"][i + 1 :]]})
        assert err.value.location == f"links[{i}]"


def test_decode_link_refuses_a_link_below_interval_1(honest_trace_25):
    """A link at interval 0 is refused as an EncodingError, and a trace
    holding one at ``links[i]``."""
    doc = honest_trace_25.to_dict()
    links = [decode_link(bytes.fromhex(text)) for text in doc["links"]]
    i, link = next((i, link) for i, link in enumerate(links) if link.interval == 1 and link.entries)
    blob = _encoded_with_entries(link, link.entries, interval=0)
    with pytest.raises(EncodingError, match="interval must be >= 1, got 0"):
        decode_link(blob)
    with pytest.raises(TraceError) as err:
        SimTrace.from_dict({**doc, "links": [*doc["links"][:i], blob.hex(), *doc["links"][i + 1 :]]})
    assert err.value.location == f"links[{i}]"


def test_decode_link_is_the_canonical_inverse(config_traces):
    """Every stored link decodes from its encoding to itself, and the payload
    and address a decoded link caches are those its fields encode to."""
    for trace in config_traces:
        for link in trace.store.links():
            decoded = decode_link(encode_link(link))
            assert decoded == link
            fresh = dataclasses.replace(decoded)  # the same fields, nothing cached
            assert decoded.__dict__["_payload"] == canonical_encode(fresh.interval, fresh.entries, fresh.prev_digest)
            assert decoded.__dict__["_link_digest"] == digest(encode_link(fresh)) == link_digest(link)


def test_every_link_decode_accepts_re_encodes_to_its_own_bytes(config_traces):
    """Single-bit flips of stored links: a mutation is refused, or its fields
    encode to exactly the mutated bytes."""
    links = [link for trace in config_traces for link in trace.store.links()]
    rng = random.Random(20_211)
    accepted = refused = 0
    for _ in range(3000):
        blob = bytearray(encode_link(rng.choice(links)))
        blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        try:
            decoded = decode_link(bytes(blob))
        except EncodingError:
            refused += 1
            continue
        accepted += 1
        assert encode_link(dataclasses.replace(decoded)) == blob
        assert link_digest(decoded) == digest(bytes(blob))
    assert accepted and refused


# -- event list construction -------------------------------------------------


def test_no_exchanges_gives_empty_list():
    assert build_event_list([]) == ()


def test_duplicate_offers_collapse_to_one_entry(swarm5):
    _, identities = swarm5
    offer = offer_history(identities[1], None)
    assert build_event_list([offer, offer]) == (offer.entry,)


def test_event_list_rejects_duplicate_peers(swarm5, monkeypatch):
    """A link refuses two entries for one peer, built directly or by
    sign_link, and sign_link refuses before it signs anything."""
    _, identities = swarm5
    entry = _entry_for(identities[1], None)
    with pytest.raises(ValueError, match="entry for peer 2 after peer 2"):
        HistoryLink(owner_id=1, interval=1, entries=(entry, entry), prev_digest=GENESIS, signature=b"")
    monkeypatch.setattr(chain, "sign", lambda *args: pytest.fail("signed a refused link"))
    with pytest.raises(ValueError, match="entry for peer 2 after peer 2"):
        sign_link(identities[0], 1, 1, (entry, entry), GENESIS)


@pytest.mark.parametrize("interval", [0, -1])
def test_a_link_below_interval_1_is_refused(interval, swarm5, monkeypatch):
    _, identities = swarm5
    with pytest.raises(ValueError, match=f"interval must be >= 1, got {interval}"):
        HistoryLink(owner_id=1, interval=interval, entries=(), prev_digest=GENESIS, signature=b"")
    monkeypatch.setattr(chain, "sign", lambda *args: pytest.fail("signed a refused link"))
    with pytest.raises(ValueError, match=f"interval must be >= 1, got {interval}"):
        sign_link(identities[0], 1, interval, (), GENESIS)


@pytest.mark.parametrize(
    "field, owner, interval",
    [("interval", 1, 2**32), ("owner_id", 2**32, 1), ("owner_id", -1, 1)],
)
def test_a_link_past_its_u32_fields_is_refused(field, owner, interval, swarm5, monkeypatch):
    """An interval or owner id that the link's u32 fields cannot hold is a
    ValueError naming the field, before anything is signed or encoded;
    2**32 - 1 still fits."""
    _, identities = swarm5
    prev = GENESIS if interval == 1 else b"\x01" * 32
    with pytest.raises(ValueError, match=f"{field} must be"):
        HistoryLink(owner_id=owner, interval=interval, entries=(), prev_digest=prev, signature=b"")
    big = sign_link(identities[0], 2**32 - 1, 2**32 - 1, (), prev)
    assert decode_link(encode_link(big)) == big
    monkeypatch.setattr(chain, "sign", lambda *args: pytest.fail("signed a refused link"))
    with pytest.raises(ValueError, match=f"{field} must be"):
        sign_link(identities[0], owner, interval, (), prev)
    if field == "interval":
        with pytest.raises(ValueError, match="interval must be"):
            extend_history(identities[0], None, interval, (), LinkStore())


@pytest.mark.parametrize(
    "field, refused, fits",
    [
        ("entry peer_id", 2**32, 2**32 - 1),
        ("entry peer_id", -1, 0),
        ("entry peer_signature", bytes(2**16), bytes(2**16 - 1)),
        ("credential robot_id", 2**32, 2**32 - 1),
        ("credential verify_key", bytes(2**16), bytes(2**16 - 1)),
        ("credential cert", bytes(2**16), bytes(2**16 - 1)),
    ],
    ids=["peer_id-2**32", "peer_id--1", "peer_signature-65536", "robot_id-2**32", "verify_key-65536", "cert-65536"],
)
def test_an_entry_past_its_u32_or_u16_fields_is_refused(field, refused, fits, swarm5, monkeypatch):
    """An entry field, or a field of the entry's credential, that the
    payload's u32 id or u16 length prefix cannot hold is a ValueError naming
    the field, before anything is signed; the largest value that fits still
    encodes and decodes."""
    _, identities = swarm5
    entry = offer_history(identities[1], None).entry
    holder, name = field.split()

    def with_value(value):
        if holder == "entry":
            return dataclasses.replace(entry, **{name: value})
        return dataclasses.replace(entry, peer_credential=dataclasses.replace(entry.peer_credential, **{name: value}))

    link = sign_link(identities[0], 1, 1, (with_value(fits),), GENESIS)
    assert decode_link(encode_link(link)) == link
    monkeypatch.setattr(chain, "sign", lambda *args: pytest.fail("signed a refused entry"))
    with pytest.raises(ValueError, match=f"^{field} must be"):
        sign_link(identities[0], 1, 1, (with_value(refused),), GENESIS)


# -- extension and verification ----------------------------------------------


def test_genesis_extension_verifies(swarm5):
    _, identities = swarm5
    store = LinkStore()
    link = extend_history(identities[0], None, 1, (), store)
    assert link.prev_digest == GENESIS
    assert verify_chain(link, identities[0].credential, store, depth=1, credentials=_issued(identities)) is None


def test_three_link_chain_replays(swarm5):
    _, identities = swarm5
    store = LinkStore()
    heads = _grow_pairwise(identities, store, 3)
    for identity in identities:
        reason = verify_chain(
            heads[identity.robot_id], identity.credential, store, depth=3, credentials=_issued(identities)
        )
        assert reason is None, reason


def test_extension_interval_mismatch_raises(swarm5):
    """An interval at or before the previous link's is refused; a later one
    links over the gap, which the walk reports as an interval gap."""
    _, identities = swarm5
    store = LinkStore()
    link = extend_history(identities[0], None, 1, (), store)
    two = extend_history(identities[0], link, 2, (), store)
    for t in (1, 2):
        with pytest.raises(ValueError):
            extend_history(identities[0], two, t, (), store)
    four = extend_history(identities[0], two, 4, (), store)
    assert four.prev_digest == link_digest(two)
    walk = chain.walk_chain(four, identities[0].credential, store, _issued(identities), None)
    assert list(walk) == [(3, 3, "interval-gap")]
    assert verify_chain(four, identities[0].credential, store, 3, _issued(identities)) == "interval-gap"


def test_extension_rejects_self_entry(swarm5):
    _, identities = swarm5
    store = LinkStore()
    with pytest.raises(ValueError):
        extend_history(identities[0], None, 1, (_entry_for(identities[0], None),), store)


def test_tampered_middle_interval_rejected_at_that_interval(swarm5, refusal):
    _, identities = swarm5
    store = LinkStore()
    heads = _grow_pairwise(identities, store, 5)
    owner = identities[0]
    # locate the interval-3 link and flip one byte of its event payload
    link = heads[owner.robot_id]
    while link.interval != 3:
        link = store.get(link.prev_digest)
    blob = bytearray(encode_link(link))
    blob[10] ^= 0x01  # inside the canonical payload
    mutated = decode_link(bytes(blob))
    store._links[link_digest(link)] = mutated
    found = refusal(heads[owner.robot_id], owner.credential, store, 5, _issued(identities))
    assert found is not None
    assert found[1] == 3


def test_depth_one_accepts_regardless_of_ancestry(swarm5):
    _, identities = swarm5
    store = LinkStore()
    heads = _grow_pairwise(identities, store, 3)
    empty = LinkStore()
    reason = verify_chain(heads[1], identities[0].credential, empty, depth=1, credentials=_issued(identities))
    assert reason is None, reason


def test_missing_predecessor_rejected(swarm5):
    _, identities = swarm5
    store = LinkStore()
    heads = _grow_pairwise(identities, store, 3)
    pruned = LinkStore()
    for d in store.digests():
        link = store.get(d)
        if link.owner_id != 1 or link.interval != 2:
            pruned._links[d] = link
    reason = verify_chain(heads[1], identities[0].credential, pruned, depth=3, credentials=_issued(identities))
    assert reason in ("missing-link", "missing-entry-link")


def test_wrong_owner_rejected(swarm5):
    _, identities = swarm5
    store = LinkStore()
    heads = _grow_pairwise(identities, store, 2)
    reason = verify_chain(heads[1], identities[1].credential, store, depth=2, credentials=_issued(identities))
    assert reason == "wrong-owner"


def test_depth_must_be_positive(swarm5):
    _, identities = swarm5
    store = LinkStore()
    link = extend_history(identities[0], None, 1, (), store)
    with pytest.raises(ValueError):
        verify_chain(link, identities[0].credential, store, depth=0, credentials=_issued(identities))


# -- verify_chain keeps no state ---------------------------------------------------


def test_walk_record_keeps_no_refusal(swarm5, refusal):
    """A refused chain is refused again, and accepted once its missing
    previous link is stored: a refusal leaves nothing behind."""
    _, identities = swarm5
    full = LinkStore()
    heads = _grow_pairwise(identities, full, 3)
    owner, head = identities[0], heads[1]
    middle = full.get(head.prev_digest)
    store = LinkStore()
    for link in full.links():
        if link is not middle:
            store.insert(link)
    issued = _issued(identities)
    for _ in range(2):
        assert refusal(head, owner.credential, store, 3, issued) == ("missing-link", 2)
    store.insert(middle)
    assert verify_chain(head, owner.credential, store, 3, issued) is None


def test_walk_record_keeps_no_forgiven_accept(swarm5, refusal):
    """A depth-1 accept that forgave a missing entry link answers for
    nothing later: once that link is stored, at the wrong interval, the
    chain is refused."""
    _, identities = swarm5
    owner, peer = identities[0], identities[1]
    elsewhere = LinkStore()
    p1 = extend_history(peer, None, 1, (), elsewhere)
    o1 = extend_history(owner, None, 1, (), elsewhere)
    o2 = extend_history(owner, o1, 2, (), elsewhere)
    store = LinkStore()
    head = extend_history(owner, o2, 3, build_event_list([offer_history(peer, p1)]), store)
    issued = _issued(identities)
    (entry,) = head.entries
    assert check_entry(entry, 3, store.get, issued) == "missing-entry-link"
    assert verify_chain(head, owner.credential, store, 1, issued) is None
    store.insert(p1)
    assert refusal(head, owner.credential, store, 1, issued) == ("entry-interval-mismatch", 3)


def test_walk_record_is_tied_to_its_tables(swarm5, refusal):
    """After a clean walk, a copy of the store with a tampered link table,
    and the same store under another credential table, each refuse: the
    verdict is a function of the tables passed."""
    _, identities = swarm5
    store = LinkStore()
    heads = _grow_pairwise(identities, store, 3)
    owner, head = identities[0], heads[1]
    issued = _issued(identities)
    assert verify_chain(head, owner.credential, store, 3, issued) is None

    middle = store.get(head.prev_digest)
    blob = bytearray(encode_link(middle))
    blob[10] ^= 0x01
    tampered = copy.copy(store)
    tampered._links = dict(store._links)
    tampered._links[link_digest(middle)] = decode_link(bytes(blob))
    assert refusal(head, owner.credential, tampered, 3, issued) == ("digest-mismatch", 2)

    _, strangers = provision_swarm(5, seed=100)
    reissued = dict(issued)
    reissued[2] = strangers[1].credential
    assert refusal(head, owner.credential, store, 3, reissued) == ("uncertified-credential", 3)
    assert verify_chain(head, owner.credential, store, 3, issued) is None


def test_walk_record_covers_only_the_depth_it_walked(swarm5, refusal):
    """An accept at depth 2 does not answer for depth 3: the walk goes on
    to the missing link below."""
    _, identities = swarm5
    full = LinkStore()
    heads = _grow_pairwise(identities, full, 3)
    owner, head = identities[0], heads[1]
    store = LinkStore()
    for link in full.links():
        if (link.owner_id, link.interval) != (1, 1):
            store.insert(link)
    issued = _issued(identities)
    assert verify_chain(head, owner.credential, store, 2, issued) is None
    assert refusal(head, owner.credential, store, 3, issued) == ("missing-link", 1)


@pytest.mark.parametrize("name", ["framing_n25", "forge_n10"])
def test_verify_chain_accepts_only_entries_with_kept_verdicts(name, monkeypatch):
    """Every entry that a ``verify_chain`` walk of one run accepts carries
    the verdict :func:`check_offer` kept for it at that link's interval,
    under the issued credential and the link the store resolves: no walk
    runs the whole entry rule on an entry it accepts.

    The walk checks the entries its ``refused`` hook hands it; the hook
    here hands over every entry and judges a copy without a kept verdict."""
    accepted = []
    walk = chain.walk_chain

    def recording_walk(head, owner_credential, store, credentials, depth, refused=None):
        assert refused is None

        def every_entry(link):
            for entry in link.entries:
                fresh = EventEntry(entry.peer_id, entry.peer_link_digest, entry.peer_signature, entry.peer_credential)
                if check_entry(fresh, link.interval, store.get, credentials) is None:
                    resolved = None if entry.peer_link_digest == GENESIS else store.get(entry.peer_link_digest)
                    accepted.append((entry, (link.interval, credentials.get(entry.peer_id), resolved)))
            return link.entries

        return walk(head, owner_credential, store, credentials, depth, every_entry)

    monkeypatch.setattr(chain, "walk_chain", recording_walk)
    run_simulation(SimConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text())))
    assert accepted
    for entry, (t, issued, resolved) in accepted:
        kept_t, kept_issued, kept_link = entry._accepted
        assert kept_t == t and kept_issued is issued and kept_link is resolved


# -- encounter pairing ---------------------------------------------------------


def _view(identities, links):
    """The central view of a trace whose store holds exactly ``links``,
    each owner's latest one its head, for a swarm of ``identities``."""
    store, heads = LinkStore(), {}
    for link in sorted(links, key=lambda link: link.interval):
        heads[link.owner_id] = store.insert(link)
    intervals = max(link.interval for link in links)
    trace = SimTrace(
        config=SimConfig(n=len(identities), p=0.5, intervals=intervals, delta=1, seed=0),
        central_verify_key=b"",  # a view never reads it
        credentials=_issued(identities),
        graphs=(),
        heads=heads,
        store=store,
        exchanges=(),
    )
    return LocalView.central(trace)


def _two_robot_links(identities, record=(True, True)):
    a, b = identities[0], identities[1]
    store = LinkStore()
    offers = {a.robot_id: offer_history(a, None), b.robot_id: offer_history(b, None)}
    links = {}
    for me, other, does_record in ((a, b, record[0]), (b, a, record[1])):
        chosen = [offers[other.robot_id]] if does_record else []
        links[me.robot_id] = extend_history(me, None, 1, build_event_list(chosen), store)
    return links[a.robot_id], links[b.robot_id]


def test_mutual_records_accepted(swarm5, paired_intervals):
    _, identities = swarm5
    view = _view(identities, _two_robot_links(identities, record=(True, True)))
    assert paired_intervals(view) == {(1, 2): {1}}
    assert view.unpaired_claims() == ()


def test_one_sided_record_unpaired(swarm5, paired_intervals):
    """Omitting a met robot leaves the victim's claim unpaired."""
    _, identities = swarm5
    view = _view(identities, _two_robot_links(identities, record=(True, False)))
    assert paired_intervals(view) == {}
    assert view.unpaired_claims() == ((1, 2, 1),)


def test_no_records_unpaired(swarm5, paired_intervals):
    _, identities = swarm5
    view = _view(identities, _two_robot_links(identities, record=(False, False)))
    assert paired_intervals(view) == {}
    assert view.unpaired_claims() == ()


@settings(max_examples=20)
@given(record=st.tuples(st.booleans(), st.booleans()))
def test_accept_encounter_is_symmetric(paired_intervals, record):
    """Swapping who records whom keeps the paired encounters and mirrors the
    unpaired claims."""
    _, identities = provision_swarm(2, seed=31)
    view = _view(identities, _two_robot_links(identities, record=record))
    mirror = _view(identities, _two_robot_links(identities, record=record[::-1]))
    assert paired_intervals(view) == paired_intervals(mirror)
    assert sorted((b, a, t) for a, b, t in view.unpaired_claims()) == list(mirror.unpaired_claims())


def test_claims_of_different_intervals_do_not_pair(swarm5, paired_intervals):
    _, identities = swarm5
    a, b = identities[0], identities[1]
    store = LinkStore()
    a1 = extend_history(a, None, 1, build_event_list([offer_history(b, None)]), store)
    b1 = extend_history(b, None, 1, (), store)
    a2 = extend_history(a, a1, 2, (), store)
    b2 = extend_history(b, b1, 2, build_event_list([offer_history(a, a1)]), store)
    view = _view(identities, [a1, b1, a2, b2])
    assert view.claims == {(1, 2, 1), (2, 1, 2)}
    assert paired_intervals(view) == {}
    assert view.unpaired_claims() == ((1, 2, 1), (2, 1, 2))


# -- the store ----------------------------------------------------------------


def test_store_is_content_addressed(swarm5):
    _, identities = swarm5
    store = LinkStore()
    _grow_pairwise(identities, store, 3)
    for d in store.digests():
        assert link_digest(store.get(d)) == d


def test_first_links_of_different_owners_do_not_collide(swarm5):
    """Identical payloads, different owners: distinct store addresses."""
    _, identities = swarm5
    store = LinkStore()
    links = [extend_history(i, None, 1, (), store) for i in identities]
    assert len(store) == len(identities)
    assert len({link_digest(l) for l in links}) == len(identities)
    assert len({signed_digest(l) for l in links}) == 1


def test_closure_covers_referenced_history(swarm5):
    central, identities = swarm5
    store = LinkStore()
    heads = _grow_pairwise(identities, store, 3)
    trace = SimTrace(
        config=SimConfig(n=len(identities), p=1.0, intervals=3, delta=3, seed=0),
        central_verify_key=central,
        credentials=_issued(identities),
        graphs=(),
        heads={r: link_digest(head) for r, head in heads.items()},
        store=store,
        exchanges=(),
    )
    view = LocalView.from_trace(trace, 1)
    # everyone met everyone each interval, so the view reaches every link
    # except the peers' final-interval links, which nothing references yet
    unreachable = {link_digest(heads[r]) for r in heads if r != 1}
    assert set(view.links) == set(store.digests()) - unreachable


@settings(max_examples=25, deadline=None)
@given(meetings=st.lists(st.sets(st.tuples(st.integers(1, 4), st.integers(1, 4))), min_size=1, max_size=6))
def test_any_honest_construction_round_trips(meetings):
    """Chains built by any honest meeting sequence verify at full depth."""
    _, identities = provision_swarm(4, seed=55)
    by_id = {i.robot_id: i for i in identities}
    store = LinkStore()
    heads = {r: None for r in by_id}
    for t, round_pairs in enumerate(meetings, start=1):
        pairs = {(min(a, b), max(a, b)) for a, b in round_pairs if a != b}
        offers = {r: offer_history(by_id[r], heads[r]) for r in by_id}
        met = {r: [] for r in by_id}
        for a, b in pairs:
            met[a].append(offers[b])
            met[b].append(offers[a])
        heads = {
            r: extend_history(by_id[r], heads[r], t, build_event_list(met[r]), store)
            for r in by_id
        }
    for r, identity in by_id.items():
        reason = verify_chain(
            heads[r], identity.credential, store, depth=len(meetings), credentials=_issued(identities)
        )
        assert reason is None, (r, reason)


def test_small_tamper_corpus(swarm5):
    """Any single-byte flip anywhere in a stored link is caught at full depth."""
    _, identities = swarm5
    store = LinkStore()
    heads = _grow_pairwise(identities, store, 4)
    owner = identities[0]
    chain = []
    link = heads[owner.robot_id]
    while link is not None:
        chain.append(link)
        link = store.get(link.prev_digest)
    rng = random.Random(88)
    for _ in range(300):
        target = rng.choice(chain)
        blob = bytearray(encode_link(target))
        blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        try:
            mutated = decode_link(bytes(blob))
        except EncodingError:
            continue  # malformed bytes cannot even be parsed: rejected upstream
        copy = LinkStore()
        copy._links = dict(store._links)
        copy._links[link_digest(target)] = mutated
        head = mutated if target is chain[0] else heads[owner.robot_id]
        assert verify_chain(head, owner.credential, copy, depth=4, credentials=_issued(identities)) is not None
