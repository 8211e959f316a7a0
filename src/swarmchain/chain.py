"""Signed per-interval event lists linked into a tamper-evident history chain.

Every robot closes each interval t >= 1 it is active in, by
:func:`extend_history` alone, with a link holding t, its event list for
t (a tuple of entries), a reference to its previous link, and a
signature.  An event entry witnesses one exchange: the peer's id, a
digest identifying the peer's head link from the previous interval, the
signature field of that link, and the peer's credential.  A robot with no
links yet (first interval, or first activity after an outage) witnesses
meetings with a signature over the genesis digest instead.  An event
list's peer ids are strictly ascending, so it has one entry per peer at
most: :func:`build_event_list` makes that order and :class:`HistoryLink`
refuses any other.

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
is unchanged while memory stays linear in the number of links.  A digest
is the plain ``DIGEST_SIZE``-byte ``bytes`` :func:`crypto.digest`
returns: :func:`canonical_encode` refuses a digest of any other length,
and :func:`decode_link` reads each one from its fixed 32-byte field.

Byte layouts (normative)
------------------------
Canonical payload -- the signed content (``canonical_encode(interval, entries, prev)``)::

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

The entry rule over an indexed store, as columns.  Number the store's
links, with ``position[d]`` the number of the link stored at digest d,
``digests[i]`` its address and ``counted[i]`` whether it passes
:func:`check_link` under its owner's issued credential.  An entry of a
counted link at t, for ``peer``, with credential ``cred``, signature
``sig`` and reference ``d``, passes :func:`check_entry` (resolving
through the store under ``credentials``) exactly when all of these hold:

- steps 1-2: ``cred == credentials[peer]``, and that issued credential's
  ``robot_id`` is ``peer`` (so ``cred.robot_id`` is too);
- genesis (step 3): ``verify(cred, GENESIS, sig)``, a pure function of
  the verify key and ``sig``, so asked once per distinct pair;
- otherwise, for ``ref = position[d]``: step 4, ``ref`` exists; step 5,
  ``link_digest(links[ref]) == digests[ref]``, computed once per link;
  step 6, ``owner[ref] == peer``; step 7, ``interval[ref] == t - 1``;
  step 8, ``sig == links[ref].signature`` and ``counted[ref]``.

Step 8 asks :func:`check_link` of the referenced link under ``cred``.
:func:`check_link` reads only the credential's robot id and verify key,
and by steps 1, 2 and 6 ``cred`` equals the issued credential of the
link's owner, so the answer is the link's own ``counted`` bit.
:func:`indexed_entry_rule` codes this form over flat per-entry
columns (each entry with its link and its ``ref``), which the claim
index (``detect.ClaimIndex``) gathers in the pass that resolves each
entry's reference for its closure masks; it fills ``entry_ok`` from
them and calls :func:`check_entry` on no entry.  :func:`check_entry`
stays the normative rule and the only code that names a reason.
:func:`check_offer` calls it on the offered entry, and
:func:`walk_chain` on the entries it walks: for :func:`verify_chain`,
where a kept verdict answers at once (the offered-entry rule below),
and for the audit, which passes the walk only the entries the index
refused.

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

An offer is the entry it would become and the link that entry
references (None for a genesis entry).  An offer made at interval t may
be recorded only if :func:`check_offer` accepts it: its entry passes
:func:`check_entry` at t, resolving only the offered link itself, and an
offered link then passes :func:`verify_chain`, under the entry's
credential, over min(window, its interval) links.  The first failure
names the reason; so a linked entry offered with no link is a
``missing-entry-link``, with another link an ``entry-digest-mismatch``,
and with another signature a ``bad-entry-signature``.  Only accepted
offers reach :func:`build_event_list`.

The exchange (:func:`check_offer`), the local views and the central
audit (``detect``) decide what counts by these rules alone.
:func:`verify_chain` rejects at the first walk finding but a late start
(at depth 1 also forgiving ``missing-entry-link``).  The audit reads
every finding of every chain, walked in full; it passes the entries its
claim index (``detect.ClaimIndex``) has refused, so the walk runs
:func:`check_entry` only on those, for their reason.

Offered-entry rule: when :func:`check_offer` accepts an offer at t, it
keeps on the offer's entry (the one object every receiver's event list
holds) the key of that verdict: t, the issued credential object and the
offered link object (None for a genesis offer).  :func:`check_entry`
accepts such an entry at once when it is asked at the same t and
``credentials.get(peer)`` and ``resolve(digest)`` return those same
objects.  Sound because the verdict of
:func:`check_entry` is a function of the entry, t, the issued credential
and the resolved link alone (and of :func:`crypto.verify`, itself a pure
function), and all four are immutable.  So each offered entry goes
through the whole rule once per run, however often a walk over the
receiver's chain checks it again.  Only :func:`check_offer` keeps a
verdict; a decoded entry never carries one.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import attrgetter, lt
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .crypto import (
    DIGEST_SIZE,
    Credential,
    SigningIdentity,
    digest,
    sign,
    verify,
)

GENESIS = bytes(DIGEST_SIZE)

_PAYLOAD_MAGIC = b"E1"
_LINK_MAGIC = b"L1"


class EncodingError(ValueError):
    """Raised when serialized chain bytes cannot be decoded."""


@dataclass(frozen=True)
class EventEntry:
    """One witnessed exchange inside an event list."""

    peer_id: int
    peer_link_digest: bytes
    peer_signature: bytes
    peer_credential: Credential


_peer_id = attrgetter("peer_id")


def _ascending(entries: tuple[EventEntry, ...]) -> bool:
    """True if the entries' peer ids are strictly ascending (one C-level pass)."""
    return all(map(lt, map(_peer_id, entries), map(_peer_id, entries[1:])))


@dataclass(frozen=True)
class HistoryLink:
    """One link of a robot's signed history chain: the exchanges its owner
    witnessed during ``interval`` (>= 1), in strictly ascending peer order
    (so at most one entry per peer).  Any other order is refused, not
    sorted; :func:`build_event_list` makes it."""

    owner_id: int
    interval: int
    entries: tuple[EventEntry, ...]
    prev_digest: bytes
    signature: bytes

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        if self.interval > _U32_MAX:
            raise ValueError(f"interval must be <= {_U32_MAX}, got {self.interval}")
        if not 0 <= self.owner_id <= _U32_MAX:
            raise ValueError(f"owner_id must be in 0..{_U32_MAX}, got {self.owner_id}")
        entries = self.entries
        if not _ascending(entries):
            before, after = next((x, y) for x, y in zip(entries, entries[1:]) if x.peer_id >= y.peer_id)
            raise ValueError(f"entry for peer {after.peer_id} after peer {before.peer_id}: not strictly ascending")
        if self.interval == 1 and self.prev_digest != GENESIS:
            raise ValueError("a link at interval 1 must reference the genesis digest")


_U32_MAX = 2**32 - 1  # the largest interval or id a u32 field holds
_U16_MAX = 2**16 - 1  # the longest signature, key or certificate a u16 length prefix allows
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
    :func:`decode_link` matches them to share the issued object.  A field
    its u32 or u16 layout cannot hold is refused with a ``ValueError``
    naming it."""
    cached = getattr(credential, "_bytes", None)
    if cached is None:
        if not 0 <= credential.robot_id <= _U32_MAX:
            raise ValueError(f"credential robot_id must be in 0..{_U32_MAX}, got {credential.robot_id}")
        if len(credential.verify_key) > _U16_MAX:
            raise ValueError(
                f"credential verify_key must be at most {_U16_MAX} bytes, got {len(credential.verify_key)}"
            )
        if len(credential.cert) > _U16_MAX:
            raise ValueError(f"credential cert must be at most {_U16_MAX} bytes, got {len(credential.cert)}")
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
    on the entry (every receiver of an offer holds the offer's entry).  A
    field its layout cannot hold is refused with a ``ValueError`` naming it."""
    cached = getattr(entry, "_bytes", None)
    if cached is None:
        if len(entry.peer_link_digest) != DIGEST_SIZE:
            raise ValueError(f"entry link digest must be {DIGEST_SIZE} bytes")
        if not 0 <= entry.peer_id <= _U32_MAX:
            raise ValueError(f"entry peer_id must be in 0..{_U32_MAX}, got {entry.peer_id}")
        if len(entry.peer_signature) > _U16_MAX:
            raise ValueError(
                f"entry peer_signature must be at most {_U16_MAX} bytes, got {len(entry.peer_signature)}"
            )
        cached = b"".join(
            [
                _ENTRY_HEAD.pack(entry.peer_id, entry.peer_link_digest, len(entry.peer_signature)),
                entry.peer_signature,
                _credential_bytes(entry.peer_credential),
            ]
        )
        object.__setattr__(entry, "_bytes", cached)
    return cached


def canonical_encode(interval: int, entries: tuple[EventEntry, ...], prev: bytes) -> bytes:
    """Deterministic, injective encoding of the signed link payload.

    Field order is fixed, variable-length fields are length-prefixed,
    and entries appear in the given order, ascending by peer id in any
    link.  The header is packed with the layouts :func:`decode_link`
    reads and joined with each entry's cached bytes.
    """
    if len(prev) != DIGEST_SIZE:
        raise ValueError(f"previous link digest must be {DIGEST_SIZE} bytes")
    head = _PAYLOAD_HEAD.pack(_PAYLOAD_MAGIC, interval, prev, len(entries))
    return b"".join([head, *map(_entry_bytes, entries)])


def _payload_bytes(link: HistoryLink) -> bytes:
    cached = getattr(link, "_payload", None)
    if cached is None:
        cached = canonical_encode(link.interval, link.entries, link.prev_digest)
        object.__setattr__(link, "_payload", cached)
    return cached


def signed_digest(link: HistoryLink) -> bytes:
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


def link_digest(link: HistoryLink) -> bytes:
    """A link's content address: hash of its full serialized form."""
    cached = getattr(link, "_link_digest", None)
    if cached is None:
        cached = digest(encode_link(link))
        object.__setattr__(link, "_link_digest", cached)
    return cached


_new_object = object.__new__
_set_attribute = object.__setattr__


def _new_entry(
    peer_id: int, peer_link_digest: bytes, peer_signature: bytes, peer_credential: Credential
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
    link that :class:`HistoryLink` accepts (so not at interval 0); anything
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
            entries.append(_new_entry(peer, peer_digest, signature, credential))
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
            entries=tuple(entries),
            prev_digest=prev,
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
        self._links: dict[bytes, HistoryLink] = {}

    def insert(self, link: HistoryLink) -> bytes:
        d = link_digest(link)
        self._links[d] = link
        return d

    def get(self, d: bytes) -> HistoryLink | None:
        return self._links.get(d)

    def __contains__(self, d: bytes) -> bool:
        return d in self._links

    def __len__(self) -> int:
        return len(self._links)

    def digests(self) -> Iterator[bytes]:
        return iter(self._links)

    def links(self) -> Iterator[HistoryLink]:
        return iter(self._links.values())


class HistoryOffer(NamedTuple):
    """What one robot hands to another during an exchange: the entry that
    witnesses it, which every receiver's event list holds as this one
    object (so its bytes are encoded once), and the link that entry
    references, its head link from the previous interval, or None when the
    entry is a signature over the genesis digest (it has no links yet)."""

    entry: EventEntry
    link: HistoryLink | None


def offer_history(identity: SigningIdentity, head: HistoryLink | None) -> HistoryOffer:
    """Build the offer a robot presents when meeting a peer."""
    credential = identity.credential
    if head is None:
        return HistoryOffer(_new_entry(credential.robot_id, GENESIS, sign(identity, GENESIS), credential), None)
    return HistoryOffer(_new_entry(credential.robot_id, link_digest(head), head.signature, credential), head)


def build_event_list(offers: Iterable[HistoryOffer]) -> tuple[EventEntry, ...]:
    """The event list of the given offers: one entry per giver, from its
    first offer, in ascending peer order whatever the order of the offers.
    Offers already in strictly ascending giver order (the simulator's, see
    the module docstring) are taken as they are; any other order is
    sorted.  The offers are not checked again; pass only those
    :func:`check_offer` accepted.  No offers means no entries.
    """
    entries = tuple([offer.entry for offer in offers])
    if _ascending(entries):
        return entries
    first: dict[int, EventEntry] = {}
    for entry in sorted(entries, key=_peer_id):  # stable: each giver's first offer first
        first.setdefault(entry.peer_id, entry)
    return tuple(first.values())


def sign_link(
    signer: SigningIdentity, owner_id: int, interval: int, entries: tuple[EventEntry, ...], prev: bytes
) -> HistoryLink:
    """A link for ``owner_id`` over (interval, entries, prev), signed with
    ``signer``'s key; the link's place in a chain is unchecked.

    Built in one pass: ``HistoryLink``'s checks run first, so a refused
    link is never signed; then the payload, the signed digest, the
    signature, the full link bytes and the link digest are each computed
    once, and the payload and both digests stay cached on the link.  The
    link is made as :func:`_new_entry` makes an entry.
    """
    link = _new_object(HistoryLink)
    _set_attribute(link, "owner_id", owner_id)
    _set_attribute(link, "interval", interval)
    _set_attribute(link, "entries", entries)
    _set_attribute(link, "prev_digest", prev)
    link.__post_init__()
    payload = canonical_encode(interval, entries, prev)
    signed = digest(payload)
    signature = sign(signer, signed)
    _set_attribute(link, "signature", signature)
    _set_attribute(link, "_payload", payload)
    _set_attribute(link, "_signed_digest", signed)
    _set_attribute(link, "_link_digest", digest(_link_bytes(owner_id, payload, signature)))
    return link


def extend_history(
    identity: SigningIdentity,
    prev: HistoryLink | None,
    interval: int,
    entries: tuple[EventEntry, ...],
    store: LinkStore,
) -> HistoryLink:
    """Close ``interval``: sign a new link over its event list ``entries``
    and ``prev``, and store it.

    The link references ``prev`` (genesis if None) at any later interval:
    the walk reports the jump after an outage as ``interval-gap`` and a
    first link above interval 1 as ``late-start``.  Refused: an interval
    at or before ``prev``'s, and an entry for the owner itself."""
    if prev is not None and interval <= prev.interval:
        raise ValueError(f"event list for interval {interval} must follow the previous link's {prev.interval}")
    owner = identity.credential.robot_id
    if owner in map(_peer_id, entries):
        raise ValueError("an event list cannot record its own owner")
    link = sign_link(identity, owner, interval, entries, GENESIS if prev is None else link_digest(prev))
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
    resolve: Callable[[bytes], HistoryLink | None],
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


def indexed_entry_rule(
    links: Sequence[HistoryLink],
    digests: Sequence[bytes],
    counted: Sequence[bool],
    credentials: Mapping[int, Credential],
    entries: Sequence[EventEntry],
    entry_link: Sequence[int],
    refs: Sequence[int | None],
) -> list[bool]:
    """The entry rule over an indexed store, as columns (see the module
    docstring).  ``links[i]`` is the link the store holds at
    ``digests[i]``, and ``counted[i]`` says whether it passes
    :func:`check_link` under ``credentials.get(links[i].owner_id)``.
    ``entries[k]`` is an entry of the counted link ``links[entry_link[k]]``,
    and its reference is stored at ``digests[refs[k]]`` (``refs[k]``
    None: not stored).

    Returns, for each ``entries[k]``, whether ``check_entry(entries[k],
    links[entry_link[k]].interval, store.get, credentials)`` accepts it.
    No entry goes through :func:`check_entry`; each distinct genesis
    (verify key, signature) goes through :func:`crypto.verify` once.
    """
    issued = {peer: credential for peer, credential in credentials.items() if credential.robot_id == peer}.get
    # what an entry of a link at interval t referencing link i carries when
    # steps 5-8 accept it: (owner, t, signature); None: no entry is accepted
    wanted = [
        (link.owner_id, link.interval + 1, link.signature) if ok and link_digest(link) == address else None
        for link, address, ok in zip(links, digests, counted)
    ]
    interval = [link.interval for link in links]
    genesis: dict[tuple[bytes, bytes], bool] = {}

    def genesis_ok(credential: Credential, signature: bytes) -> bool:
        key = (credential.verify_key, signature)
        verdict = genesis.get(key)
        if verdict is None:
            verdict = genesis[key] = verify(credential, GENESIS, signature)
        return verdict

    return [
        (e.peer_credential is issued(e.peer_id) or e.peer_credential == issued(e.peer_id))
        and (
            genesis_ok(e.peer_credential, e.peer_signature)
            if e.peer_link_digest == GENESIS
            else ref is not None and wanted[ref] == (e.peer_id, interval[i], e.peer_signature)
        )
        for e, i, ref in zip(entries, entry_link, refs)
    ]


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
            for entry in link.entries if refused is None else refused(link):
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
    entry, link = offer
    reason = check_entry(entry, t, lambda _: link, credentials)
    if reason is None and link is not None:
        reason = verify_chain(link, entry.peer_credential, store, min(window, link.interval), credentials)
    if reason is None:
        object.__setattr__(entry, "_accepted", (t, credentials.get(entry.peer_id), link))
    return reason
