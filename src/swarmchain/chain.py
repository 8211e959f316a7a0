"""Signed per-interval event lists linked into a tamper-evident history chain.

Every robot closes each interval t >= 1 it is active in, by
:func:`extend_history` alone, with a link holding its event list for t, a
reference to its previous link, and a signature.  An event entry
witnesses one exchange: the peer's id, a digest identifying the peer's
head link from the previous interval, the signature field of that link,
and the peer's credential.  A robot with no links yet (first interval, or
first activity after an outage) witnesses meetings with a signature over
the genesis digest instead.  An event list's peer ids are strictly
ascending, so it has one entry per peer at most: :func:`build_event_list`
makes that order and :class:`EventList` refuses any other.

A receiver's accepted offers usually arrive in that order already.  The
simulator runs an interval's exchanges in ascending edge order (a, b),
a < b, and queues each offer for its receiver as the exchange runs.  So
receiver r first gets the offers of its edges (a, r), a < r, ascending
in a, and then those of its edges (r, b), b > r, ascending in b: every
(a, r) sorts before every (r, b) because a < r.  :func:`build_event_list`
therefore checks the order in one pass and sorts only when the check
fails, which only a forged or planted offer added out of turn (or a
caller that queues offers in another order) can make happen.

Instead of embedding full histories inside each other, links are stored
once in a content-addressed :class:`LinkStore` and referenced by digest.
The signature covers the same content either way, so verification power
is unchanged while memory stays linear in the number of links.

Byte layouts (normative)
------------------------
Canonical payload -- the signed content (``canonical_encode(events, prev)``)::

    magic     2   b"E1"
    interval  4   big-endian unsigned
    prev      32  digest of the owner's previous link (genesis: zeros)
    count     4   big-endian unsigned number of entries
    entries, ascending peer_id:
      peer_id      4   big-endian unsigned
      link_digest  32  digest of the peer's referenced link (or genesis)
      sig_len      2   big-endian unsigned, then the peer signature bytes
      cred_id      4   big-endian unsigned
      vk_len       2   big-endian unsigned, then the verify-key bytes
      cert_len     2   big-endian unsigned, then the certificate bytes

Full link encoding (``encode_link``)::

    magic     2   b"L1"
    owner     4   big-endian unsigned
    payload   --  the canonical payload above, verbatim
    sig_len   2   big-endian unsigned, then the owner signature bytes

:func:`decode_link` is the canonical inverse of ``encode_link``: it
accepts only bytes that ``encode_link`` produces (entries strictly
ascending by peer id, nothing truncated or trailing), so a decoded link
re-encodes to exactly the bytes it was read from.

The message a robot signs is ``digest(canonical_encode(...))``.  A
link's store address is ``digest(encode_link(link))``: owner id and
signature sit outside the signed payload, so links of different owners
get distinct addresses even when their payloads coincide (e.g. first
links with empty event lists), while the owner's signature still covers
every entry byte through the payload.

Verification rules (normative)
------------------------------
A link counts only if :func:`check_link` accepts it: the credential is
its owner's (else ``wrong-owner``) and the owner signature verifies over
the signed digest (else ``bad-signature``).

An entry inside a link for interval t counts as witnessing its peer at t
only if :func:`check_entry` accepts it.  The checks run in this order and
the first failure names the reason:

1. ``entry-credential-mismatch`` -- the embedded credential is issued to
   another robot id than the entry's peer.
2. ``uncertified-credential`` -- the embedded credential is not the one
   central control issued for that peer.
3. Genesis references: ``bad-entry-signature`` unless the signature over
   the genesis digest verifies under the embedded credential.
4. ``missing-entry-link`` -- the referenced link does not resolve.
5. ``entry-digest-mismatch`` -- it resolves to a link of another digest.
6. ``entry-owner-mismatch`` -- the referenced link belongs to another robot.
7. ``entry-interval-mismatch`` -- the referenced link is not from t - 1.
8. ``bad-entry-signature`` -- the entry's signature is not the referenced
   link's owner signature, verified under the embedded credential.

A chain is walked by :func:`walk_chain`, from its head toward genesis,
and the walk reports only what it refuses: each link goes through
:func:`check_link` (``wrong-owner`` ends the walk; a ``bad-signature``
link's entries are skipped), then each of its entries through
:func:`check_entry`.  Between a link at t and its previous link the walk
finds, in this order:

1. ``missing-link`` -- the previous link does not resolve (at t - 1).
2. ``digest-mismatch`` -- it resolves to a link of another digest (at t - 1).
3. ``interval-order`` -- it is not from before t (at its own interval).
4. ``interval-gap`` -- it is from before t - 1 (over the skipped intervals).

The first three end the walk.  A first link (previous digest genesis)
above interval 1 is a ``late-start`` over intervals 1..t - 1.

An offer made at interval t may be recorded only if :func:`check_offer`
accepts it: the entry it would become (:func:`offer_entry`) passes
:func:`check_entry` at t, resolving only the offered link itself, and an
offered link then passes :func:`verify_chain` over min(window, its
interval) links.  The first failure names the reason.  Only accepted
offers reach :func:`build_event_list`.

The exchange (:func:`check_offer`), the local views and the central
audit (``detect``) decide what counts by these rules alone.
:func:`verify_chain` rejects at the first walk finding but a late start
(at depth 1 also forgiving ``missing-entry-link``).  The audit reads
every finding of every chain, walked in full; it passes the entries its
claim index (``detect.ClaimIndex``) has refused, so the walk runs
:func:`check_entry` only on those, for their reason.

Offered-entry rule: when :func:`check_offer` accepts an offer at t, it
keeps on the offer's entry (:func:`offer_entry`, the one object every
receiver's event list holds) the key of that verdict: t, the issued
credential object and the offered link object (None for a genesis
offer).  :func:`check_entry` accepts such an entry at once when it is
asked at the same t and ``credentials.get(peer)`` and ``resolve(digest)``
return those same objects.  Sound because the verdict of
:func:`check_entry` is a function of the entry, t, the issued credential
and the resolved link alone (and of :func:`crypto.verify`, itself a pure
function), and all four are immutable.  So each offered entry is checked
once per run, whether the next check comes from a walk over the
receiver's chain or from a claim index over the store.  Only
:func:`check_offer` keeps a verdict; a decoded entry never carries one.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import attrgetter, lt
from typing import Callable, Iterable, Iterator, Mapping

from .crypto import (
    DIGEST_SIZE,
    Credential,
    Digest,
    SigningIdentity,
    digest,
    sign,
    verify,
)

GENESIS = Digest(b"\x00" * DIGEST_SIZE)

_PAYLOAD_MAGIC = b"E1"
_LINK_MAGIC = b"L1"


class EncodingError(ValueError):
    """Raised when serialized chain bytes cannot be decoded."""


@dataclass(frozen=True)
class EventEntry:
    """One witnessed exchange inside an event list."""

    peer_id: int
    peer_link_digest: Digest
    peer_signature: bytes
    peer_credential: Credential


@dataclass(frozen=True)
class EventList:
    """The exchanges one robot witnessed during one interval, in strictly
    ascending peer order (so at most one entry per peer).  Any other
    order is refused, not sorted; :func:`build_event_list` makes it."""

    interval: int
    entries: tuple[EventEntry, ...]

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        entries = self.entries
        if not all(map(lt, map(_peer_id, entries), map(_peer_id, entries[1:]))):  # one C-level pass
            before, after = next((x, y) for x, y in zip(entries, entries[1:]) if x.peer_id >= y.peer_id)
            raise ValueError(f"entry for peer {after.peer_id} after peer {before.peer_id}: not strictly ascending")

    @classmethod
    def empty(cls, interval: int) -> "EventList":
        return cls(interval=interval, entries=())


@dataclass(frozen=True)
class HistoryLink:
    """One link of a robot's signed history chain."""

    owner_id: int
    interval: int
    events: EventList
    prev_digest: Digest
    signature: bytes

    def __post_init__(self) -> None:
        if self.events.interval != self.interval:
            raise ValueError(
                f"event list interval {self.events.interval} != link interval {self.interval}"
            )
        if self.interval == 1 and self.prev_digest != GENESIS:
            raise ValueError("a link at interval 1 must reference the genesis digest")


_peer_id = attrgetter("peer_id")


_LINK_PREFIX = struct.Struct(">2sI")  # link magic, owner
_PAYLOAD_HEAD = struct.Struct(">2sI32sI")  # payload magic, interval, prev, count
_ENTRY_HEAD = struct.Struct(">I32sH")  # peer id, link digest, signature length
_CRED_HEAD = struct.Struct(">IH")  # credential id, verify-key length
_LENGTH = struct.Struct(">H")
_PAYLOAD_START = _LINK_PREFIX.size


# Values cached on credentials, entries and links are read with getattr,
# never through ``__dict__``: reading ``__dict__`` gives the object a dict
# of its own, one more object per entry and link for the cyclic GC.


def _credential_bytes(credential: Credential) -> bytes:
    """A credential's normative bytes in an entry (cred_id through the
    certificate), encoded once and cached on the credential: every entry
    that embeds an issued credential joins these bytes, and
    :func:`decode_link` matches them to share the issued object."""
    cached = getattr(credential, "_bytes", None)
    if cached is None:
        cached = b"".join(
            [
                _CRED_HEAD.pack(credential.robot_id, len(credential.verify_key)),
                credential.verify_key,
                _LENGTH.pack(len(credential.cert)),
                credential.cert,
            ]
        )
        object.__setattr__(credential, "_bytes", cached)
    return cached


def _entry_bytes(entry: EventEntry) -> bytes:
    """An entry's normative bytes in the payload, encoded once and cached
    on the entry (see :func:`offer_entry`: receivers share one entry)."""
    cached = getattr(entry, "_bytes", None)
    if cached is None:
        if len(entry.peer_link_digest) != DIGEST_SIZE:
            raise ValueError(f"entry link digest must be {DIGEST_SIZE} bytes")
        cached = b"".join(
            [
                _ENTRY_HEAD.pack(entry.peer_id, entry.peer_link_digest, len(entry.peer_signature)),
                entry.peer_signature,
                _credential_bytes(entry.peer_credential),
            ]
        )
        object.__setattr__(entry, "_bytes", cached)
    return cached


def canonical_encode(events: EventList, prev: Digest) -> bytes:
    """Deterministic, injective encoding of the signed link payload.

    Field order is fixed, variable-length fields are length-prefixed,
    and entries appear in their list's order, ascending by peer id.  The
    header is packed with the layouts :func:`decode_link` reads and joined
    with each entry's cached bytes.
    """
    if len(prev) != DIGEST_SIZE:
        raise ValueError(f"previous link digest must be {DIGEST_SIZE} bytes")
    entries = events.entries
    head = _PAYLOAD_HEAD.pack(_PAYLOAD_MAGIC, events.interval, prev, len(entries))
    return b"".join([head, *map(_entry_bytes, entries)])


def _payload_bytes(link: HistoryLink) -> bytes:
    cached = getattr(link, "_payload", None)
    if cached is None:
        cached = canonical_encode(link.events, link.prev_digest)
        object.__setattr__(link, "_payload", cached)
    return cached


def signed_digest(link: HistoryLink) -> Digest:
    """The digest a link's owner signs: hash of the canonical payload."""
    cached = getattr(link, "_signed_digest", None)
    if cached is None:
        cached = digest(_payload_bytes(link))
        object.__setattr__(link, "_signed_digest", cached)
    return cached


def _link_bytes(owner_id: int, payload: bytes, signature: bytes) -> bytes:
    return b"".join([_LINK_PREFIX.pack(_LINK_MAGIC, owner_id), payload, _LENGTH.pack(len(signature)), signature])


def encode_link(link: HistoryLink) -> bytes:
    """Full serialized form of a link (owner, payload, signature)."""
    return _link_bytes(link.owner_id, _payload_bytes(link), link.signature)


def link_digest(link: HistoryLink) -> Digest:
    """A link's content address: hash of its full serialized form."""
    cached = getattr(link, "_link_digest", None)
    if cached is None:
        cached = digest(encode_link(link))
        object.__setattr__(link, "_link_digest", cached)
    return cached


_new_object = object.__new__
_set_attribute = object.__setattr__


def _new_entry(
    peer_id: int, peer_link_digest: Digest, peer_signature: bytes, peer_credential: Credential
) -> EventEntry:
    """``EventEntry(peer_id, peer_link_digest, peer_signature,
    peer_credential)`` in one step: the same instance, its fields set in
    the same order without the dataclass ``__init__`` frame (the class has
    no ``__post_init__`` to run).  Each field is set as an attribute, not
    as one assigned ``__dict__``, so the instance keeps CPython's inline
    attribute values: a separate dict would add about 136 bytes and one
    more object for the cyclic GC to visit per entry."""
    entry = _new_object(EventEntry)
    _set_attribute(entry, "peer_id", peer_id)
    _set_attribute(entry, "peer_link_digest", peer_link_digest)
    _set_attribute(entry, "peer_signature", peer_signature)
    _set_attribute(entry, "peer_credential", peer_credential)
    return entry


def decode_link(data: bytes, issued: Mapping[int, Credential] | None = None) -> HistoryLink:
    """The canonical inverse of :func:`encode_link`.

    Accepts exactly the bytes ``encode_link`` can produce: entries in
    strictly ascending peer order, nothing truncated or trailing, and a
    link that :class:`EventList` and :class:`HistoryLink` accept; anything
    else raises :class:`EncodingError`.  Hence ``encode_link(decode_link(b))
    == b``, so the link keeps its payload slice and ``digest(b)`` as its
    cached payload and address instead of encoding itself again.

    ``issued`` is the credential table central control issued: an entry
    whose credential bytes are exactly its peer's issued credential's
    holds that issued object, and any other credential decodes to its own.
    """
    find_issued = {}.get if issued is None else issued.get
    try:
        link_magic, owner = _LINK_PREFIX.unpack_from(data)
        payload_magic, interval, prev, count = _PAYLOAD_HEAD.unpack_from(data, _PAYLOAD_START)
        if link_magic != _LINK_MAGIC or payload_magic != _PAYLOAD_MAGIC:
            raise EncodingError("bad magic")
        pos = _PAYLOAD_START + _PAYLOAD_HEAD.size
        entries = []
        for _ in range(count):
            peer, peer_digest, size = _ENTRY_HEAD.unpack_from(data, pos)
            pos += _ENTRY_HEAD.size
            # A slice cut short leaves pos past the end, where the next read fails.
            signature = data[pos : pos + size]
            pos += size
            credential = find_issued(peer)
            issued_bytes = b"" if credential is None else _credential_bytes(credential)
            if issued_bytes and data.startswith(issued_bytes, pos):
                pos += len(issued_bytes)
            else:
                cred_id, size = _CRED_HEAD.unpack_from(data, pos)
                pos += _CRED_HEAD.size
                verify_key = data[pos : pos + size]
                pos += size
                (size,) = _LENGTH.unpack_from(data, pos)
                pos += _LENGTH.size
                cert = data[pos : pos + size]
                pos += size
                credential = Credential(cred_id, verify_key, cert)
            # The ``32s`` field is exactly DIGEST_SIZE bytes, so the digest skips its length check.
            entries.append(_new_entry(peer, bytes.__new__(Digest, peer_digest), signature, credential))
        payload_end = pos
        (size,) = _LENGTH.unpack_from(data, pos)
        pos += _LENGTH.size + size
    except struct.error as exc:
        raise EncodingError(f"truncated link: {exc}") from None
    if pos != len(data):
        raise EncodingError(f"link is {len(data)} bytes, its fields take {pos}")
    try:
        link = HistoryLink(
            owner_id=owner,
            interval=interval,
            events=EventList(interval=interval, entries=tuple(entries)),
            prev_digest=Digest(prev),
            signature=data[payload_end + _LENGTH.size :],
        )
    except ValueError as exc:
        raise EncodingError(str(exc)) from exc
    object.__setattr__(link, "_payload", data[_PAYLOAD_START:payload_end])
    object.__setattr__(link, "_link_digest", digest(data))
    return link


class LinkStore:
    """Content-addressed link storage: digest(encode_link(link)) -> link."""

    def __init__(self) -> None:
        self._links: dict[Digest, HistoryLink] = {}

    def insert(self, link: HistoryLink) -> Digest:
        d = link_digest(link)
        self._links[d] = link
        return d

    def get(self, d: Digest) -> HistoryLink | None:
        return self._links.get(d)

    def __contains__(self, d: Digest) -> bool:
        return d in self._links

    def __len__(self) -> int:
        return len(self._links)

    def digests(self) -> Iterator[Digest]:
        return iter(self._links)

    def links(self) -> Iterator[HistoryLink]:
        return iter(self._links.values())


@dataclass(frozen=True)
class HistoryOffer:
    """What one robot hands to another during an exchange: its credential
    and its head link from the previous interval, or a signature over the
    genesis digest when it has no links yet."""

    credential: Credential
    link: HistoryLink | None
    genesis_signature: bytes | None = None

    def __post_init__(self) -> None:
        if (self.link is None) == (self.genesis_signature is None):
            raise ValueError("an offer carries exactly one of link or genesis signature")
        link, credential = self.link, self.credential
        if link is None:
            entry = _new_entry(credential.robot_id, GENESIS, self.genesis_signature, credential)
        else:
            entry = _new_entry(credential.robot_id, link_digest(link), link.signature, credential)
        object.__setattr__(self, "_entry", entry)


def offer_history(identity: SigningIdentity, head: HistoryLink | None) -> HistoryOffer:
    """Build the offer a robot presents when meeting a peer."""
    if head is None:
        return HistoryOffer(
            credential=identity.credential,
            link=None,
            genesis_signature=sign(identity, GENESIS),
        )
    return HistoryOffer(credential=identity.credential, link=head)


def offer_entry(offer: HistoryOffer) -> EventEntry:
    """The event entry that witnesses an offer's giver.  It is built with
    the offer, so every receiver's event list holds the same entry object
    (and its bytes are encoded once)."""
    return offer._entry


def build_event_list(t: int, offers: Iterable[HistoryOffer]) -> EventList:
    """The event list for interval ``t``: one entry per giver, from its
    first offer, in ascending peer order whatever the order of the offers.
    Offers already in strictly ascending giver order (the simulator's, see
    the module docstring) are taken as they are; any other order is
    sorted.  The offers are not checked again; pass only those
    :func:`check_offer` accepted.  No offers means an empty list.
    """
    entries = tuple([offer_entry(offer) for offer in offers])
    try:
        return EventList(interval=t, entries=entries)
    except ValueError:  # out of giver order (a bad interval is refused again below)
        pass
    first: dict[int, EventEntry] = {}
    for entry in sorted(entries, key=_peer_id):  # stable: each giver's first offer first
        first.setdefault(entry.peer_id, entry)
    return EventList(interval=t, entries=tuple(first.values()))


def sign_link(signer: SigningIdentity, owner_id: int, events: EventList, prev: Digest) -> HistoryLink:
    """A link for ``owner_id`` over (events, prev), signed with
    ``signer``'s key; the link's place in a chain is unchecked.

    Built in one pass: the payload, the signed digest, the signature, the
    full link bytes and the link digest are each computed once, and the
    payload and both digests stay cached on the link.  The link is made
    as :func:`_new_entry` makes an entry, and ``HistoryLink``'s checks
    run on it.
    """
    payload = canonical_encode(events, prev)
    signed = digest(payload)
    signature = sign(signer, signed)
    link = _new_object(HistoryLink)
    _set_attribute(link, "owner_id", owner_id)
    _set_attribute(link, "interval", events.interval)
    _set_attribute(link, "events", events)
    _set_attribute(link, "prev_digest", prev)
    _set_attribute(link, "signature", signature)
    link.__post_init__()
    _set_attribute(link, "_payload", payload)
    _set_attribute(link, "_signed_digest", signed)
    _set_attribute(link, "_link_digest", digest(_link_bytes(owner_id, payload, signature)))
    return link


def extend_history(
    identity: SigningIdentity,
    prev: HistoryLink | None,
    events: EventList,
    store: LinkStore,
) -> HistoryLink:
    """Close an interval: sign a new link over (events, prev) and store it.

    The link references ``prev`` (genesis if None) at any later interval:
    the walk reports the jump after an outage as ``interval-gap`` and a
    first link above interval 1 as ``late-start``.  Refused: an interval
    at or before ``prev``'s, and an entry for the owner itself."""
    if prev is not None and events.interval <= prev.interval:
        raise ValueError(f"event list for interval {events.interval} must follow the previous link's {prev.interval}")
    owner = identity.credential.robot_id
    if owner in map(_peer_id, events.entries):
        raise ValueError("an event list cannot record its own owner")
    link = sign_link(identity, owner, events, GENESIS if prev is None else link_digest(prev))
    store.insert(link)  # finds the link digest sign_link cached
    return link


def check_link(link: HistoryLink, credential: Credential | None) -> str | None:
    """None if ``credential`` is the link owner's and signed the link, else
    the reason (see the module docstring)."""
    if credential is None or link.owner_id != credential.robot_id:
        return "wrong-owner"
    if not verify(credential, signed_digest(link), link.signature):
        return "bad-signature"
    return None


def check_entry(
    entry: EventEntry,
    t: int,
    resolve: Callable[[Digest], HistoryLink | None],
    credentials: Mapping[int, Credential],
) -> str | None:
    """None if ``entry``, found in a link for interval ``t``, witnesses its
    peer at ``t``, else the first failing reason of the entry rule (see
    the module docstring).

    ``resolve`` maps a digest to the link it may reference (``store.get``
    or a view's ``links.get``); ``credentials`` is the credential table
    central control issued.  An entry that :func:`check_offer` accepted
    at ``t`` is accepted at once under the same issued credential and
    resolved link (the offered-entry rule of the module docstring).
    """
    kept = getattr(entry, "_accepted", None)  # not entry.__dict__, which would build one per entry
    if kept is not None:
        kept_t, kept_issued, kept_link = kept
        if (
            kept_t == t
            and kept_issued is credentials.get(entry.peer_id)
            and (kept_link is None or kept_link is resolve(entry.peer_link_digest))
        ):
            return None
    if entry.peer_id != entry.peer_credential.robot_id:
        return "entry-credential-mismatch"
    issued = credentials.get(entry.peer_id)
    if issued is not entry.peer_credential and issued != entry.peer_credential:
        return "uncertified-credential"
    if entry.peer_link_digest == GENESIS:
        if not verify(entry.peer_credential, GENESIS, entry.peer_signature):
            return "bad-entry-signature"
        return None
    resolved = resolve(entry.peer_link_digest)
    if resolved is None:
        return "missing-entry-link"
    if link_digest(resolved) != entry.peer_link_digest:
        return "entry-digest-mismatch"
    if resolved.owner_id != entry.peer_id:
        return "entry-owner-mismatch"
    if resolved.interval != t - 1:
        return "entry-interval-mismatch"
    if entry.peer_signature != resolved.signature or check_link(resolved, entry.peer_credential):
        return "bad-entry-signature"
    return None


def walk_chain(
    head: HistoryLink,
    owner_credential: Credential | None,
    store: LinkStore,
    credentials: Mapping[int, Credential],
    depth: int | None,
    refused: Callable[[HistoryLink], Iterable[EventEntry]] | None = None,
) -> Iterator[tuple[int, int, str]]:
    """Every refusal and linkage finding of the walk rule (see the module
    docstring) from ``head`` toward genesis, in walk order, over at most
    ``depth`` links (None: the whole chain).  A finding is ``(first, last,
    reason)``, the intervals it covers and its reason; accepted entries
    yield nothing.

    ``refused`` gives, for a link that passes ``check_link``, the entries
    ``check_entry`` (through ``store`` under ``credentials``) refuses, as
    already decided elsewhere; the walk then runs ``check_entry`` only on
    them, for their reason.
    """
    resolve = store._links.get
    link, walked = head, 1
    while True:
        t = link.interval
        reason = check_link(link, owner_credential)
        if reason is not None:
            yield t, t, reason
            if reason == "wrong-owner":
                return
        else:
            for entry in link.events.entries if refused is None else refused(link):
                reason = check_entry(entry, t, resolve, credentials)
                if reason is not None:
                    yield t, t, reason
        if link.prev_digest == GENESIS and t > 1:
            yield 1, t - 1, "late-start"
        if link.prev_digest == GENESIS or walked == depth:
            return
        prev = resolve(link.prev_digest)
        if prev is None:
            yield t - 1, t - 1, "missing-link"
            return
        if link_digest(prev) != link.prev_digest:
            yield t - 1, t - 1, "digest-mismatch"
            return
        if prev.interval >= t:
            yield prev.interval, prev.interval, "interval-order"
            return
        if prev.interval < t - 1:
            yield prev.interval + 1, t - 1, "interval-gap"
        link, walked = prev, walked + 1


def verify_chain(
    head: HistoryLink,
    owner_credential: Credential,
    store: LinkStore,
    depth: int,
    credentials: Mapping[int, Credential],
) -> str | None:
    """None if the ``depth`` most recent links of ``head``'s chain pass the
    walk rule, else the reason of the first :func:`walk_chain` finding but
    a late start and, at ``depth`` 1, a missing entry link (the head's
    signature covers entry digests as bytes).  A pure function of its
    arguments: a re-walked entry is answered by its kept verdict (the
    offered-entry rule) and a re-walked link by the verify memo.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    forgiven = ("late-start",) if depth > 1 else ("late-start", "missing-entry-link")
    for _, _, reason in walk_chain(head, owner_credential, store, credentials, depth):
        if reason not in forgiven:
            return reason
    return None


def check_offer(
    offer: HistoryOffer,
    t: int,
    store: LinkStore,
    window: int,
    credentials: Mapping[int, Credential],
) -> str | None:
    """None if ``offer``, made at interval ``t``, may be recorded, else the
    first failing reason of the offer rule (see the module docstring).

    ``store`` holds the offered link's ancestry, ``window`` is how many
    links of it to verify and ``credentials`` is the issued table.  An
    accepted offer's entry keeps its verdict (the offered-entry rule).
    """
    link = offer.link
    entry = offer_entry(offer)
    reason = check_entry(entry, t, lambda _: link, credentials)
    if reason is None and link is not None:
        reason = verify_chain(link, offer.credential, store, min(window, link.interval), credentials)
    if reason is None:
        object.__setattr__(entry, "_accepted", (t, credentials.get(entry.peer_id), link))
    return reason
