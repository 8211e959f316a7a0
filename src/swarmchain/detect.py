"""Suspicion analysis over history chains, local and central.

A robot's local view is everything reachable from its own head link:
its records plus every history it ingested and re-referenced.  Evidence
that robot j was alive at interval t is either a link j signed at t or a
verified entry naming j inside someone's interval-t event list.  What
"signed" and "verified" mean is the link and entry rule stated once in
:mod:`swarmchain.chain` (``check_link``, ``check_entry``): an entry
counts only with the credential central control issued to its peer.  On
top of that view sit three detectors:

* ``detect_disappeared`` -- nobody has vouched for the robot within the
  last delta intervals.
* ``compile_report``'s pairing verdicts -- too few of the robot's
  encounters are recorded by both sides.
* ``detect_collusion``   -- a pair co-meets in k consecutive intervals
  although p**k is below the plausibility threshold.

One rule, ``revocations``, turns a report's evidence into the robots it
revokes; ``compile_report`` applies it as it builds the report.

``central_audit`` is the post-task counterpart: it walks every collected
chain in full by the walk rule of :mod:`swarmchain.chain`
(``walk_chain``), cross-checks that every claimed encounter is recorded
by both participants, and reports coverage gaps.

Cost.  A store's :class:`ClaimIndex` is built once, by the first view or
audit that reads the store under a credential table, and kept on the
store.  Every stored link goes through ``check_link`` once, and one
pass over the links resolves each entry's reference, for the closure
masks and for the entry rule as columns (``indexed_entry_rule``, derived
in :mod:`swarmchain.chain`): an entry is decided by its credential
against the issued table and by the digest, owner, interval, signature
and ``check_link`` verdict of the link it references, with one verify
per distinct genesis signature and no ``check_entry`` call.  The index
also keeps the per-trace constants every reader shares: each claim's
entry, the claims grouped by claimer and by target, the links grouped
by owner, and the window claims of each ``(as_of, delta)``.  A view is then its
head's mask (the central view ORs every head's), and a report is a
handful of numpy passes over the claims (gathers, segment sums with
``np.add.reduceat``, a run filter, the pairing status column) plus
Python work only for what the report lists; no report checks an
entry, and no interval is ever a bit position or an array size.  The
audit walks each chain with ``walk_chain`` but takes the refused entries
of every counted link from the index, so ``check_entry`` runs only on
those, for their reason.  The index assumes that the store's link
table and the credential table are not altered in place; it is tagged
with both table objects and the table's size, so a store given another
table, grown by :meth:`LinkStore.insert`, or read under another
credential table gets a fresh index.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import attrgetter
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .chain import EventEntry, HistoryLink, LinkStore, check_link, indexed_entry_rule, link_digest, walk_chain
from .crypto import Credential
from .prob import pairing_threshold
from .sim import SimConfig, SimTrace


Claim = tuple[int, int, int]  # (claimer, target, interval)
_peer_id = attrgetter("peer_id")
_NONE = np.zeros(0, np.int64)  # no claim numbers


class InsufficientHistoryError(ValueError):
    """The view does not span the detection window yet."""


class ClaimIndex:
    """The links of one store and the claims their entries make,
    numbered once so that every view of the store is a bitmask.

    Links are numbered in store order.  A link's closure mask (a Python
    int) is its own bit OR the masks of the stored links it references,
    previous link and entry links alike; a dangling reference adds
    nothing.  ``counted`` is the mask of the links that pass
    ``check_link``.  Each entry of a counted link names a claim
    ``(claimer, target, interval)``; distinct claims are numbered in
    sorted order, so duplicate entries collapse.  An entry counts when
    ``check_entry`` would accept it, resolving through the store; the
    constructor decides every entry of every counted link once, by the
    rule's columns (``indexed_entry_rule``), into ``entry_ok`` and
    ``claim_ok``.  Once built, the index changes only its memo dicts.
    The per-claim and per-link columns are numpy arrays; robots are
    numbered densely, and no robot id or interval is ever an array
    position.  A per-robot array has one more slot, always 0, that the -1
    of an absent robot indexes.

    A view's masks and tallies are sized by the trace (its links, claims
    or robots), never by what the view holds: numpy keeps freed buffers
    under 1 KiB for reuse, and small arrays of ever new sizes were once
    found pinning the top of the heap between ``analyze_n100`` traces.
    Only the claim numbers a detector picks out vary with the view.  The
    index holds no reference to the store it is kept on, so the two are
    freed together by reference counting.
    """

    def __init__(self, store: LinkStore, credentials: Mapping[int, Credential]) -> None:
        self.digests = list(store.digests())
        self.links = list(store.links())
        self.position = dict(zip(self.digests, range(len(self.links))))
        counted = [check_link(link, credentials.get(link.owner_id)) is None for link in self.links]
        self.counted = int.from_bytes(np.packbits(np.array(counted, bool), bitorder="little").tobytes(), "little")
        find = self.position.get
        refs: list[list[int]] = []
        entries: list[EventEntry] = []  # the entries of the counted links
        entry_link: list[int] = []
        entry_ref: list[int | None] = []
        self.first_entry: list[int] = []
        for i, link in enumerate(self.links):
            found = [find(e.peer_link_digest) for e in link.entries]
            refs.append([j for j in (find(link.prev_digest), *found) if j is not None])
            self.first_entry.append(len(entries))
            if counted[i]:
                entries += link.entries
                entry_link += [i] * len(found)
                entry_ref += found
        ok = indexed_entry_rule(self.links, self.digests, counted, credentials, entries, entry_link, entry_ref)
        self.entry_ok = np.array(ok, bool)
        self.masks = _closure_masks(refs)
        owner_ids = np.array([link.owner_id for link in self.links], np.int64)
        peer_ids = np.array(list(map(_peer_id, entries)), np.int64)
        self.link_t = np.array([link.interval for link in self.links], np.int64)
        self.entry_link = np.array(entry_link, np.int64)
        self.robots = _numbered(np.concatenate((owner_ids, peer_ids)))[0]
        times = _numbered(self.link_t)[0]
        robots, spans = len(self.robots), len(times)
        owner = np.searchsorted(self.robots, owner_ids)
        link_time = np.searchsorted(times, self.link_t)
        # Claims and (owner, interval) slots are numbered in sorted order
        # of one int64 key over the dense robot and interval numbers;
        # robots**2 * intervals stays far below 2**63 for any trace that
        # fits in memory.
        slots, self.link_slot = _numbered(owner * spans + link_time)
        self.slot_count = len(slots)
        claimer = owner[self.entry_link]
        target = np.searchsorted(self.robots, peer_ids)
        claims, self.entry_claim = _numbered((claimer * robots + target) * spans + link_time[self.entry_link])
        claimer, rest = np.divmod(claims, robots * spans)
        target, time = np.divmod(rest, spans)
        self.claim_t = times[time]
        self.claim_forward = claimer < target  # dense numbers keep id order
        # claim i - 1 is the same pair's claim for the interval before
        pair = claims // spans
        self.claim_continues = np.zeros(len(claims), bool)
        self.claim_continues[1:] = (pair[1:] == pair[:-1]) & (self.claim_t[1:] == self.claim_t[:-1] + 1)
        # -1 (no mirror claim, no slot) indexes the False sentinel a view appends
        self.claim_mirror = _position(claims, (target * robots + claimer) * spans + time)
        self.claim_slot = _position(slots, target * spans + time)
        self.claim_claimer, self.claim_target = claimer, target
        self.robot_ids: list[int] = self.robots.tolist()

        # Per-trace constants of the per-view passes.  Each claim is read
        # through its first entry; duplicate entries are few (a fork).
        by_claim = np.argsort(self.entry_claim, kind="stable")
        first = np.ones(len(by_claim), bool)
        first[1:] = self.entry_claim[by_claim[1:]] != self.entry_claim[by_claim[:-1]]
        self.claim_entry, self.repeat_entry = by_claim[first], by_claim[~first]
        self.claim_link = self.entry_link[self.claim_entry]
        self.claim_ok = self.entry_ok[self.claim_entry]
        # Claims are in claimer order already; targets and link owners get an order.
        self.claimer_start, self.claimers = _segments(claimer)
        self.by_target = np.argsort(target, kind="stable")
        self.target_t = self.claim_t[self.by_target]
        self.target_start, self.targets = _segments(target[self.by_target])
        self.by_owner = np.argsort(owner, kind="stable")
        self.owner_t = self.link_t[self.by_owner]
        self.owner_start, self.owners = _segments(owner[self.by_owner])
        self.self_claims = np.flatnonzero(claimer == target)
        self._windows: dict[tuple[int, int], np.ndarray] = {}
        self._swarms: dict[int, np.ndarray] = {}

    def held(self, links: np.ndarray) -> np.ndarray:
        """The claims of the accepted entries of ``links`` (a bool array
        over the links), as a bool array over the claims with one more,
        always False, slot for -1."""
        claims = np.zeros(len(self.claim_t) + 1, bool)
        np.logical_and(self.claim_ok, links[self.claim_link], out=claims[:-1])
        repeats = self.repeat_entry
        if len(repeats):
            claims[self.entry_claim[repeats[self.entry_ok[repeats] & links[self.entry_link[repeats]]]]] = True
        return claims

    def mask_of(self, head: bytes | None) -> int:
        """The closure mask of the link ``head`` names; 0 if none is indexed."""
        i = None if head is None else self.position.get(head)
        return 0 if i is None else self.masks[i]

    def bits(self, mask: int) -> np.ndarray:
        """The counted links of ``mask`` as a bool array over the links."""
        raw = (mask & self.counted).to_bytes((len(self.links) + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, np.uint8), count=len(self.links), bitorder="little").view(bool)

    def claims_at(self, numbers: np.ndarray) -> list[Claim]:
        """The claims numbered ``numbers``, in that order."""
        robots = self.robots
        return list(
            zip(
                robots[self.claim_claimer[numbers]].tolist(),
                robots[self.claim_target[numbers]].tolist(),
                self.claim_t[numbers].tolist(),
            )
        )

    def window(self, as_of: int, delta: int) -> np.ndarray:
        """The numbers of the forward claims (claimer < target) of the last
        ``delta`` intervals up to ``as_of``, ascending."""
        key = (as_of, delta)
        claims = self._windows.get(key)
        if claims is None:
            t = self.claim_t
            inside = self.claim_forward & (t >= max(1, as_of - delta + 1)) & (t <= as_of)
            claims = self._windows[key] = np.flatnonzero(inside)
        return claims

    def swarm(self, n: int) -> np.ndarray:
        """The dense numbers of robots 1..n, -1 for a robot not indexed."""
        dense = self._swarms.get(n)
        if dense is None:
            dense = self._swarms[n] = _position(self.robots, np.arange(1, n + 1))
        return dense

    @staticmethod
    def select(items: Iterable, mask: np.ndarray) -> Iterator:
        """The items whose place in ``mask`` is set, in order."""
        return compress(items, mask.tolist())


def _numbered(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``values`` in ascending order, and the number of each
    value among them: ``np.unique`` without the ``numpy.ma`` import it
    costs every run."""
    ordered = np.sort(values)
    first = np.ones(len(ordered), bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    return distinct, np.searchsorted(distinct, values)


def _segments(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal values in ``ordered`` starts, and its value."""
    first = np.ones(len(ordered), bool)
    first[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    return starts, ordered[starts]


def _position(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Where each of ``wanted`` sits in the sorted ``keys``, -1 if absent."""
    if not len(keys):
        return np.full(len(wanted), -1, np.int64)
    at = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
    return np.where(keys[at] == wanted, at, -1)


def _closure_masks(refs: list[list[int]]) -> list[int]:
    """Each node's bit OR the masks of the nodes ``refs`` lists for it,
    in one iterative depth-first pass.  A reference back into the current
    path (impossible among content-addressed links) adds nothing."""
    masks: list[int | None] = [None] * len(refs)
    for root in range(len(refs)):
        if masks[root] is not None:
            continue
        masks[root] = 0  # on the path
        stack = [(root, iter(refs[root]))]
        while stack:
            node, pending = stack[-1]
            for ref in pending:
                if masks[ref] is None:
                    masks[ref] = 0
                    stack.append((ref, iter(refs[ref])))
                    break
            else:
                stack.pop()
                mask = 1 << node
                for ref in refs[node]:
                    mask |= masks[ref]
                masks[node] = mask
    return masks


def _claim_index(store: LinkStore, credentials: Mapping[int, Credential]) -> ClaimIndex:
    """The claim index of ``store`` under ``credentials``, built on first
    use and kept on the store (see "Cost." in the module docstring)."""
    kept = store.__dict__.get("_claim_index")
    table = store._links
    if kept is None or kept[0] is not table or kept[1] != len(table) or kept[2] is not credentials:
        kept = store.__dict__["_claim_index"] = (table, len(table), credentials, ClaimIndex(store, credentials))
    return kept[3]


class _PairingTally(NamedTuple):
    """What the pairing detectors read of one view; the per-robot arrays
    are over the index's dense robot numbers."""

    paired: np.ndarray  # paired claims naming each robot (a self-claim once)
    unpaired: np.ndarray  # decisively unpaired claims naming each robot
    omitted: np.ndarray  # the decisively unpaired claims' numbers, ascending
    mutual: np.ndarray  # bool per index claim: in view, and so is its mirror


@dataclass
class LocalView:
    """Chain content one observer can resolve, verified at ingestion.

    A view is built from a trace only.  ``index`` is the claim index of
    the trace's store and ``mask`` selects the view's links among its
    links.
    """

    observer: int | None
    as_of: int
    params: SimConfig
    index: ClaimIndex = field(repr=False, compare=False)
    mask: int = field(repr=False, compare=False)

    @classmethod
    def from_trace(cls, trace: SimTrace, observer: int) -> "LocalView":
        index = _claim_index(trace.store, trace.credentials)
        return cls(observer, trace.config.intervals, trace.config, index, index.mask_of(trace.heads.get(observer)))

    @classmethod
    def central(cls, trace: SimTrace) -> "LocalView":
        """The post-task central perspective: union over all collected heads."""
        index = _claim_index(trace.store, trace.credentials)
        mask = 0
        for head in trace.heads.values():
            mask |= index.mask_of(head)
        return cls(None, trace.config.intervals, trace.config, index, mask)

    @cached_property
    def links(self) -> dict[bytes, HistoryLink]:
        """digest -> link, for the links in view that pass ``check_link``."""
        index = self.index
        return dict(index.select(zip(index.digests, index.links), index.bits(self.mask)))

    @cached_property
    def _selected(self) -> tuple[np.ndarray, np.ndarray]:
        """Bool arrays of the index's links and claims in view.  The claims
        array carries one more, always False, slot for the index's -1."""
        links = self.index.bits(self.mask)
        return links, self.index.held(links)

    @cached_property
    def _latest(self) -> np.ndarray:
        """The latest interval with verified evidence of each robot (0:
        none), over the dense robot numbers and the absent robot's slot:
        segment maxima over the links by owner and the claims by target."""
        index, (links, claims) = self.index, self._selected
        latest = np.zeros(len(index.robots) + 1, np.int64)
        latest[index.owners] = np.maximum.reduceat(links[index.by_owner] * index.owner_t, index.owner_start)
        named = np.maximum.reduceat(claims[index.by_target] * index.target_t, index.target_start)
        latest[index.targets] = np.maximum(latest[index.targets], named)
        return latest

    @cached_property
    def evidence(self) -> dict[int, int]:
        """robot id -> latest interval with verified evidence it was alive."""
        return {robot: t for robot, t in zip(self.index.robot_ids, self._latest.tolist()) if t}

    @cached_property
    def claims(self) -> frozenset[Claim]:
        """(claimer, target, interval) for every entry in view that passes
        ``check_entry``.

        The index decided each entry once, by the entry rule's columns
        (``indexed_entry_rule``), which accept exactly what ``check_entry``
        accepts resolving through the trace's store.  That accepts exactly
        what resolving through the view's own links would: every view holds
        the ``check_link``-verified part of a closure of the store, so
        whatever an entry of a link in view references and the store holds
        is in the closure too.
        """
        return frozenset(self.index.claims_at(np.flatnonzero(self._selected[1][:-1])))

    @cached_property
    def _pairing(self) -> _PairingTally:
        """The tallies every pairing detector reads, as array operations
        over the index's claims.

        A claim is paired when its reverse is claimed too, and decisively
        unpaired when it is not although the counterpart's link for that
        interval is visible; either way it counts for both robots it
        names, once for a self-claim.  A claim's mirror is paired exactly
        when it is, so a robot's paired count is twice the paired claims
        it makes, less its paired self-claims: one segment sum over the
        claims in claimer order.
        """
        index, (links, claims) = self.index, self._selected
        held = claims[:-1]
        mutual = held & claims[index.claim_mirror]
        robots = len(index.robots) + 1
        paired = np.zeros(robots, np.int64)
        paired[index.claimers] = 2 * np.add.reduceat(mutual, index.claimer_start)
        selfs = index.self_claims
        if len(selfs):
            np.subtract.at(paired, index.claim_claimer[selfs], mutual[selfs].astype(np.int64))
        omitted = np.flatnonzero(held & ~mutual) if np.count_nonzero(held) > np.count_nonzero(mutual) else _NONE
        if len(omitted):
            visible = np.zeros(index.slot_count + 1, bool)  # the last slot stands for -1
            visible[index.link_slot[links]] = True
            omitted = omitted[visible[index.claim_slot[omitted]]]
        unpaired = np.bincount(index.claim_claimer[omitted], minlength=robots) + np.bincount(
            index.claim_target[omitted], minlength=robots
        )
        return _PairingTally(paired, unpaired, omitted, mutual)

    def unpaired_claims(self) -> tuple[Claim, ...]:
        """Claims with decisive omission evidence: the counterpart's link for
        that interval is visible and does not record the meeting.  Claims
        whose counterpart link is simply not visible yet prove nothing and
        are not listed."""
        omitted = self._pairing.omitted
        return tuple(self.index.claims_at(omitted)) if len(omitted) else ()


def _last_seen(view: LocalView, delta: int) -> tuple[list[int], list[int]]:
    """The robots of 1..n but the observer without verified evidence in the
    last ``delta`` intervals, and the latest interval with evidence of each."""
    if view.as_of < delta:
        raise InsufficientHistoryError(
            f"view spans {view.as_of} intervals, need at least delta={delta}"
        )
    last = view._latest[view.index.swarm(view.params.n)]
    gone = last < view.as_of - delta + 1
    if view.observer is not None and 1 <= view.observer <= view.params.n:
        gone[view.observer - 1] = False
    rows = np.flatnonzero(gone)
    return (rows + 1).tolist(), last[rows].tolist()


def detect_disappeared(view: LocalView, delta: int) -> frozenset[int]:
    """Robots with no verified evidence in the last ``delta`` intervals."""
    return frozenset(_last_seen(view, delta)[0])


def detect_collusion(view: LocalView, delta: int, epsilon: float) -> frozenset[tuple[tuple[int, int], int]]:
    """Pairs co-meeting in k consecutive window intervals with p**k < epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    index = view.index
    window = index.window(view.as_of, delta)
    held = window[view._pairing.mutual[window]]
    if not len(held):
        return frozenset()
    # Claims are numbered in sorted order, so a pair's claims lie together
    # by interval: a run goes on from one held claim to the next unless the
    # next is not the claim after it or not the same pair's next interval.
    bounds = np.ones(len(held) + 1, bool)
    np.logical_or(held[1:] != held[:-1] + 1, ~index.claim_continues[held[1:]], out=bounds[1:-1])
    bounds = np.flatnonzero(bounds)
    length = bounds[1:] - bounds[:-1]
    # p**k never grows with k, so a pair is suspect once its longest run reaches the shortest implausible one
    shortest = next((k for k in range(1, int(length.max()) + 1) if view.params.p**k < epsilon), None)
    if shortest is None:
        return frozenset()
    suspect = length >= shortest
    longest: dict[tuple[int, int], int] = {}
    for (a, b, _), k in zip(index.claims_at(held[bounds[:-1][suspect]]), length[suspect].tolist()):
        longest[a, b] = max(longest.get((a, b), 0), k)
    return frozenset(longest.items())


PAIRING_STATUS = ("trusted", "suspicious", "indeterminate")  # status code -> name


class PairingColumns(NamedTuple):
    """One report's pairing verdicts, row k for robot ``robot[k]``: robots
    1..n but the observer, ascending."""

    robot: tuple[int, ...]
    status: tuple[int, ...]  # codes into PAIRING_STATUS
    paired: tuple[int, ...]  # encounters recorded by both sides
    unpaired: tuple[int, ...]  # decisively unpaired claims naming the robot


@dataclass
class SuspicionReport:
    """One observer's verdicts, each carrying its evidence."""

    observer: int | None
    as_of: int
    disappeared: frozenset[tuple[int, int]]  # (robot, last interval with evidence; 0 = never)
    unpaired_claims: tuple[tuple[int, int, int], ...]  # (claimer, target, interval)
    collusion_suspects: frozenset[tuple[tuple[int, int], int]]  # (pair, consecutive count)
    threshold: int  # the fewest paired encounters that outweigh unpaired claims
    pairing: PairingColumns
    revoked: frozenset[int]  # revocations(disappeared, pairing, collusion_suspects)

    def to_dict(self) -> dict[str, Any]:
        return {
            "observer": self.observer,
            "as_of": self.as_of,
            "disappeared": [
                {"robot": r, "last_seen": last} for r, last in sorted(self.disappeared)
            ],
            "unpaired_claims": [
                {"claimer": a, "target": b, "interval": t} for a, b, t in self.unpaired_claims
            ],
            "collusion_suspects": [
                {"pair": list(pair), "consecutive": k}
                for pair, k in sorted(self.collusion_suspects)
            ],
            "threshold": self.threshold,
            "pairing": {name: list(column) for name, column in self.pairing._asdict().items()},
            "revoked": sorted(self.revoked),
        }


def revocations(
    disappeared: Iterable[tuple[int, int]],
    pairing: PairingColumns,
    collusion_suspects: Iterable[tuple[tuple[int, int], int]],
) -> frozenset[int]:
    """The robots a report revokes: the disappeared, the rows of
    ``pairing`` whose status is suspicious, and both halves of every
    colluding pair.

    The set is the observer's blacklist, decided post hoc: the simulator
    never reads a report, so a revoked robot keeps exchanging for the
    rest of the run.  It is never propagated.
    """
    out = {r for r, _ in disappeared}
    out.update(r for r, status in zip(pairing.robot, pairing.status) if status == 1)  # suspicious
    for pair, _ in collusion_suspects:
        out.update(pair)
    return frozenset(out)


def compile_report(
    view: LocalView,
    delta: int,
    alpha: float,
    epsilon: float,
) -> SuspicionReport:
    """Run every detector over one view and assemble the report.

    Only decidable evidence counts toward a robot's pairing verdict (see
    ``LocalView._pairing``).  A robot with a decisive omission against it
    and fewer paired encounters than the threshold, the single-interval
    expectation ceil((1-alpha)*n*p), is suspicious.  No decidable
    encounters at all is indeterminate, not suspicious: isolation may
    just be graph sparsity.
    """
    n, index, tally = view.params.n, view.index, view._pairing
    threshold = pairing_threshold(n, view.params.p, alpha)
    robot = np.arange(1, n + 1)
    if view.observer is not None:
        robot = robot[robot != view.observer]
    dense = index.swarm(n)[robot - 1]
    paired, unpaired = tally.paired[dense] // 2, tally.unpaired[dense]
    status = np.where((unpaired == 0) | (paired >= threshold), 0, 1)  # trusted, suspicious
    status[(paired == 0) & (unpaired == 0)] = 2  # indeterminate
    disappeared = frozenset(zip(*_last_seen(view, delta)))
    collusion = detect_collusion(view, delta, epsilon)
    pairing = PairingColumns(*(tuple(column.tolist()) for column in (robot, status, paired, unpaired)))
    return SuspicionReport(
        observer=view.observer,
        as_of=view.as_of,
        disappeared=disappeared,
        unpaired_claims=view.unpaired_claims(),
        collusion_suspects=collusion,
        threshold=threshold,
        pairing=pairing,
        revoked=revocations(disappeared, pairing, collusion),
    )


def collective_disappeared(trace: SimTrace, delta: int) -> frozenset[int]:
    """Robots that every honest observer other than themselves
    independently marks disappeared, provided one such observer exists.

    A lone observer misses a robot now and then just from graph
    sparsity; a robot the whole rest of the honest swarm lost track of is
    the outcome that matters for framing experiments.  An observer's own
    view never marks the observer, so it says nothing about it.
    """
    adversaries = trace.config.adversary_ids()
    observers = [
        r for r in range(1, trace.config.n + 1) if r not in adversaries and trace.heads.get(r) is not None
    ]
    result: frozenset[int] | None = None
    for observer in observers:
        marked = detect_disappeared(LocalView.from_trace(trace, observer), delta) | {observer}
        result = marked if result is None else result & marked
        if not result:
            return frozenset()
    if len(observers) == 1:  # nobody else observes the lone observer
        result -= set(observers)
    return result if result is not None else frozenset()


@dataclass
class AuditReport:
    """Findings of the post-task central audit."""

    total_intervals: int
    verification_failures: tuple[tuple[int, int, str], ...]  # (robot, interval, reason)
    unpaired_claims: tuple[tuple[int, int, int], ...]  # (claimer, target, interval)
    gaps: tuple[tuple[int, int, int], ...]  # (robot, first missing, last missing)
    missing_heads: tuple[int, ...]
    encounters: frozenset[tuple[int, int, int]]  # (i, j, t) with i < j, recorded by both

    @property
    def clean(self) -> bool:
        return not (
            self.verification_failures or self.unpaired_claims or self.gaps or self.missing_heads
        )

    @property
    def findings_count(self) -> int:
        return (
            len(self.verification_failures)
            + len(self.unpaired_claims)
            + len(self.gaps)
            + len(self.missing_heads)
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "total_intervals": self.total_intervals,
            "clean": self.clean,
            "verification_failures": [
                {"robot": r, "interval": t, "reason": reason}
                for r, t, reason in self.verification_failures
            ],
            "unpaired_claims": [
                {"claimer": a, "target": b, "interval": t} for a, b, t in self.unpaired_claims
            ],
            "gaps": [
                {"robot": r, "from": lo, "to": hi} for r, lo, hi in self.gaps
            ],
            "missing_heads": list(self.missing_heads),
            "encounters": [list(e) for e in sorted(self.encounters)],
        }


def central_audit(
    heads: Mapping[int, HistoryLink | None],
    store: LinkStore,
    credentials: Mapping[int, Credential],
    total_intervals: int,
) -> AuditReport:
    """Verify every collected chain in full and cross-check pairing.

    Sorts each chain's ``walk_chain`` findings (the walk rule of
    :mod:`swarmchain.chain`): interval gaps and late starts are coverage
    gaps, every other finding is a verification failure.  A chain that
    stops short of the final interval is a coverage gap too, and missing
    heads are listed.

    The audit reads the store's :class:`ClaimIndex`, the one the trace's
    views read: the walk takes each checked link's refused entries from
    the refused positions of ``index.entry_ok``, so ``check_entry`` runs
    only on those, for their reason.  Its claims are the index claims of
    the accepted entries of the links the walks checked; a claim without
    its mirror is unpaired, and a forward claim with it is an encounter.

    Every head is a link the store holds, and ``credentials`` maps each
    robot id to that robot's credential, as in every loaded trace;
    otherwise the walk meets a link the index does not count and the
    audit raises ``ValueError``.
    """
    index = _claim_index(store, credentials)
    walked = np.zeros(len(index.links), bool)
    refused_at: dict[int, list[int]] = {}  # link number -> the positions of its refused entries
    bad = np.flatnonzero(~index.entry_ok)
    for k, i in zip(bad.tolist(), index.entry_link[bad].tolist()):
        refused_at.setdefault(i, []).append(k - index.first_entry[i])

    def refused(link: HistoryLink) -> Iterable[EventEntry]:
        d = link_digest(link)
        i = index.position.get(d)
        if i is None or not index.counted >> i & 1 or link_digest(index.links[i]) != d:
            raise ValueError(f"link {d.hex()} is not a counted link of the store's claim index")
        walked[i] = True
        return [link.entries[k] for k in refused_at.get(i, ())]

    failures: list[tuple[int, int, str]] = []
    gaps: list[tuple[int, int, int]] = []
    missing: list[int] = []
    for robot in sorted(heads):
        head = heads[robot]
        if head is None:
            missing.append(robot)
            continue
        for first, last, reason in walk_chain(head, credentials.get(robot), store, credentials, None, refused=refused):
            if reason in ("interval-gap", "late-start"):
                gaps.append((robot, first, last))
            else:
                failures.append((robot, last, reason))
        if head.interval < total_intervals:
            gaps.append((robot, head.interval + 1, total_intervals))

    claims = index.held(walked)
    held, mirrored = claims[:-1], claims[index.claim_mirror]
    return AuditReport(
        total_intervals=total_intervals,
        verification_failures=tuple(failures),
        unpaired_claims=tuple(index.claims_at(np.flatnonzero(held & ~mirrored))),
        gaps=tuple(gaps),
        missing_heads=tuple(missing),
        encounters=frozenset(index.claims_at(np.flatnonzero(held & mirrored & index.claim_forward))),
    )


def audit_trace(trace: SimTrace) -> AuditReport:
    """Convenience wrapper: audit a finished run's collected heads."""
    return central_audit(
        trace.head_links(), trace.store, trace.credentials, trace.config.intervals
    )
