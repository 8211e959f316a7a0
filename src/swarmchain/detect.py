"""Suspicion analysis over history chains, local and central.

A robot's local view is everything reachable from its own head link:
its records plus every history it ingested and re-referenced.  Evidence
that robot j was alive at interval t is either a link j signed at t or a
verified entry naming j inside someone's interval-t event list.  What
"signed" and "verified" mean is the link and entry rule stated once in
:mod:`swarmchain.chain` (``check_link``, ``check_entry``): an entry
counts only with the credential central control issued to its peer.  On
top of that view sit four detectors:

* ``detect_disappeared`` -- nobody has vouched for the robot within the
  last delta intervals.
* ``check_pairing``      -- too few of the robot's encounters are recorded
  by both sides.
* ``detect_collusion``   -- a pair co-meets in k consecutive intervals
  although p**k is below the plausibility threshold.
* ``update_revocation``  -- applies a pluggable policy to the evidence;
  what misbehavior costs a robot its standing is the swarm engineer's
  call, so the policy is just a function.

``central_audit`` is the post-task counterpart: it walks every collected
chain in full by the walk rule of :mod:`swarmchain.chain`
(``walk_chain``), cross-checks that every claimed encounter is recorded
by both participants, and reports coverage gaps.

Cost.  The first view of a trace builds the trace's :class:`ClaimIndex`:
every stored link goes through ``check_link`` once, one iterative pass
gives each link its closure mask, and each entry of a link that passes
goes through ``check_entry`` once, when a view first holds the link.  A
view is then its head's mask (the central view ORs every head's), and
each detector is a handful of numpy operations over the trace's claims:
O(links + claims) array work per view, Python work only for what a
report lists, and no interval ever used as a bit position or an array
size.  The index assumes the trace's store and credential table are not
changed after the first view is built; a trace given another store or
table object gets a fresh index.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .chain import HistoryLink, LinkStore, check_entry, check_link, walk_chain
from .crypto import Credential, Digest
from .prob import pairing_threshold
from .sim import SimConfig, SimTrace


Claim = tuple[int, int, int]  # (claimer, target, interval)


class InsufficientHistoryError(ValueError):
    """The view does not span the detection window yet."""


@dataclass(frozen=True)
class PairingVerdict:
    """Outcome of the paired-records check for one robot."""

    status: str  # "trusted" | "suspicious" | "indeterminate"
    paired: int
    unpaired: int
    threshold: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "paired": self.paired,
            "unpaired": self.unpaired,
            "threshold": self.threshold,
        }


class ClaimIndex:
    """The links of one store and the claims their entries make,
    numbered once so that every view of the store is a bitmask.

    Links are numbered in store order.  A link's closure mask (a Python
    int) is its own bit OR the masks of the stored links it references,
    previous link and entry links alike; a dangling reference adds
    nothing.  ``counted`` is the mask of the links that pass
    ``check_link``.  Each entry of a counted link names a claim
    ``(claimer, target, interval)``; distinct claims are numbered in
    sorted order, so duplicate entries collapse.  An entry counts once
    ``check_entry`` accepts it, resolving through the store;
    :meth:`accepted` checks each link's entries once, when a view first
    holds the link, so links no view holds cost no entry check.  The
    per-claim and per-link columns are numpy arrays; robots are numbered
    densely, and no robot id or interval is ever an array position.

    A view picks its results out of Python lists (:meth:`select`), not
    out of small arrays sized by what it holds: numpy keeps freed buffers
    under 1 KiB for reuse, so such arrays leave kept buffers of ever new
    sizes wherever the heap stood, and between ``analyze_n100`` traces
    they were found pinning the top of the heap.
    """

    def __init__(self, store: LinkStore, credentials: Mapping[int, Credential]) -> None:
        self.store, self.credentials = store, credentials
        self.digests = list(store.digests())
        self.links = list(store.links())
        self.position = dict(zip(self.digests, range(len(self.links))))
        counted = [check_link(link, credentials.get(link.owner_id)) is None for link in self.links]
        self.counted = int.from_bytes(np.packbits(np.array(counted, bool), bitorder="little").tobytes(), "little")
        self.unchecked = self.counted  # links whose entries await check_entry
        find = self.position.get
        refs: list[list[int]] = []
        peers: list[int] = []
        entry_link: list[int] = []
        self.first_entry: list[int] = []
        for i, link in enumerate(self.links):
            entries = link.events.entries
            found = [find(link.prev_digest), *[find(e.peer_link_digest) for e in entries]]
            refs.append([j for j in found if j is not None])
            self.first_entry.append(len(peers))
            if counted[i]:
                peers += [e.peer_id for e in entries]
                entry_link += [i] * len(entries)
        self.entry_ok = np.zeros(len(peers), bool)
        self.masks = _closure_masks(refs)
        owner_ids = np.array([link.owner_id for link in self.links], np.int64)
        peer_ids = np.array(peers, np.int64)
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
        # a self-claim's partner is the sentinel robot len(robots)
        self.claim_partner = np.where(claimer == target, robots, target)
        self.link_owner, self.claim_claimer, self.claim_target = owner, claimer, target
        self.robot_ids: list[int] = self.robots.tolist()

    def accepted(self, mask: int) -> np.ndarray:
        """Which entries ``check_entry`` accepts, as a bool array over the
        entries; settled for every entry of a counted link in ``mask``."""
        todo, resolve = mask & self.unchecked, self.store.get
        for i in self.select(range(len(self.links)), self.bits(todo)) if todo else ():
            link = self.links[i]
            for row, entry in enumerate(link.events.entries, self.first_entry[i]):
                self.entry_ok[row] = check_entry(entry, link.interval, resolve, self.credentials) is None
        self.unchecked &= ~todo
        return self.entry_ok

    def mask_of(self, head: Digest | None) -> int:
        """The closure mask of the link ``head`` names; 0 if none is indexed."""
        i = None if head is None else self.position.get(head)
        return 0 if i is None else self.masks[i]

    def bits(self, mask: int) -> np.ndarray:
        """The counted links of ``mask`` as a bool array over the links."""
        raw = (mask & self.counted).to_bytes((len(self.links) + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, np.uint8), count=len(self.links), bitorder="little").view(bool)

    @cached_property
    def claims(self) -> list[Claim]:
        """Every claim, in claim order."""
        robots = self.robots
        return list(
            zip(robots[self.claim_claimer].tolist(), robots[self.claim_target].tolist(), self.claim_t.tolist())
        )

    @staticmethod
    def select(items: Iterable, mask: np.ndarray) -> Iterator:
        """The items whose place in ``mask`` is set, in order."""
        return compress(items, mask.tolist())

    def per_robot(self, counts: np.ndarray) -> dict[int, int]:
        """robot id -> count, for the robots whose count is nonzero."""
        return {robot: count for robot, count in zip(self.robot_ids, counts.tolist()) if count}


def _numbered(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``values`` in ascending order, and the number of each
    value among them: ``np.unique`` without the ``numpy.ma`` import it
    costs every run."""
    ordered = np.sort(values)
    first = np.ones(len(ordered), bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    return distinct, np.searchsorted(distinct, values)


def _position(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Where each of ``wanted`` sits in the sorted ``keys``, -1 if absent."""
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


def _trace_index(trace: SimTrace) -> ClaimIndex:
    """The index of ``trace``'s store, built on first use.

    It is kept on the trace with the store and credential table it was
    built from, so a copy of the trace given another store or table gets
    its own.
    """
    kept = trace.__dict__.get("_claim_index")
    if kept is None or kept[0] is not trace.store or kept[1] is not trace.credentials:
        index = ClaimIndex(trace.store, trace.credentials)
        kept = trace.__dict__["_claim_index"] = (trace.store, trace.credentials, index)
    return kept[2]


class _PairingTally(NamedTuple):
    """What the pairing detectors read of one view."""

    paired: dict[int, int]  # robot -> paired claims naming it (a self-claim once)
    unpaired: dict[int, int]  # robot -> decisively unpaired claims naming it
    unpaired_claims: tuple[Claim, ...]  # sorted
    mutual: np.ndarray  # bool per index claim: in view, and so is its mirror


@dataclass
class LocalView:
    """Chain content one observer can resolve, verified at ingestion.

    A view is built from a trace only.  ``index`` is the trace's index
    and ``mask`` selects the view's links among its links.
    """

    observer: int | None
    as_of: int
    params: SimConfig
    index: ClaimIndex = field(repr=False, compare=False)
    mask: int = field(repr=False, compare=False)

    @classmethod
    def from_trace(cls, trace: SimTrace, observer: int) -> "LocalView":
        index = _trace_index(trace)
        return cls(observer, trace.config.intervals, trace.config, index, index.mask_of(trace.heads.get(observer)))

    @classmethod
    def central(cls, trace: SimTrace) -> "LocalView":
        """The post-task central perspective: union over all collected heads."""
        index = _trace_index(trace)
        mask = 0
        for head in trace.heads.values():
            mask |= index.mask_of(head)
        return cls(None, trace.config.intervals, trace.config, index, mask)

    @cached_property
    def links(self) -> dict[Digest, HistoryLink]:
        """digest -> link, for the links in view that pass ``check_link``."""
        index = self.index
        return dict(index.select(zip(index.digests, index.links), index.bits(self.mask)))

    @cached_property
    def _selected(self) -> tuple[np.ndarray, np.ndarray]:
        """Bool arrays of the index's links and claims in view.  The claims
        array carries one more, always False, slot for the index's -1."""
        index = self.index
        links = index.bits(self.mask)
        claims = np.zeros(len(index.claim_t) + 1, bool)
        claims[index.entry_claim[index.accepted(self.mask) & links[index.entry_link]]] = True
        return links, claims

    @cached_property
    def evidence(self) -> dict[int, int]:
        """robot id -> latest interval with verified evidence it was alive."""
        index, (links, claims) = self.index, self._selected
        held = claims[:-1]
        latest = np.zeros(len(index.robots), np.int64)
        np.maximum.at(latest, index.link_owner, np.where(links, index.link_t, 0))
        np.maximum.at(latest, index.claim_target, np.where(held, index.claim_t, 0))
        return index.per_robot(latest)

    @cached_property
    def claims(self) -> frozenset[Claim]:
        """(claimer, target, interval) for every entry in view that passes
        ``check_entry``.

        Each entry is checked once, when a view first holds its link,
        resolving through the trace's store.  For a view of a trace that
        accepts exactly what resolving through the view's own links would:
        every view holds the ``check_link``-verified part of a closure of
        the trace's store, so whatever an entry of a link in view
        references and the store holds is in the closure too.
        """
        return frozenset(self.index.select(self.index.claims, self._selected[1][:-1]))

    @cached_property
    def _pairing(self) -> _PairingTally:
        """The tallies every pairing detector reads, as array operations
        over the index's claims.

        A claim is paired when its reverse is claimed too, and decisively
        unpaired when it is not although the counterpart's link for that
        interval is visible; either way it counts for both robots it
        names, once for a self-claim.
        """
        index, (links, claims) = self.index, self._selected
        held = claims[:-1]
        mutual = held & claims[index.claim_mirror]
        visible = np.bincount(index.link_slot, links, index.slot_count + 1) > 0  # the last slot stands for -1
        omitted = held & ~mutual & visible[index.claim_slot]
        robots = len(index.robots)
        paired = np.bincount(index.claim_claimer[mutual], minlength=robots) + np.bincount(
            index.claim_partner[mutual], minlength=robots + 1
        )[:robots]
        unpaired = np.bincount(index.claim_claimer[omitted], minlength=robots) + np.bincount(
            index.claim_target[omitted], minlength=robots
        )
        return _PairingTally(
            index.per_robot(paired),
            index.per_robot(unpaired),
            tuple(index.select(index.claims, omitted)) if omitted.any() else (),
            mutual,
        )

    def unpaired_claims(self) -> tuple[Claim, ...]:
        """Claims with decisive omission evidence: the counterpart's link for
        that interval is visible and does not record the meeting.  Claims
        whose counterpart link is simply not visible yet prove nothing and
        are not listed."""
        return self._pairing.unpaired_claims

    def paired_intervals(self) -> dict[tuple[int, int], set[int]]:
        """(a, b) with a < b -> intervals in which both sides recorded the meeting."""
        out: dict[tuple[int, int], set[int]] = {}
        for a, b, t in self.index.select(self.index.claims, self._pairing.mutual & self.index.claim_forward):
            out.setdefault((a, b), set()).add(t)
        return out


def detect_disappeared(view: LocalView, delta: int) -> frozenset[int]:
    """Robots with no verified evidence in the last ``delta`` intervals."""
    if view.as_of < delta:
        raise InsufficientHistoryError(
            f"view spans {view.as_of} intervals, need at least delta={delta}"
        )
    window_start = view.as_of - delta + 1
    evidence = view.evidence
    return frozenset(
        r
        for r in range(1, view.params.n + 1)
        if r != view.observer and evidence.get(r, 0) < window_start
    )


def check_pairing(view: LocalView, subject: int, alpha: float, n: int, p: float) -> PairingVerdict:
    """Trust verdict for ``subject`` from the paired share of its encounters.

    Counts only decidable evidence: an encounter is paired when both
    sides' records are visible, and decisively unpaired when the
    counterpart's link for that interval is visible but omits the
    meeting.  Records whose counterpart is simply not visible yet prove
    nothing either way.  Paired records aggregated across the window are
    compared against the single-interval expectation ceil((1-alpha)*n*p);
    a subject with any decisive omission against it and too few paired
    records to clear that bar is suspicious.  No decidable encounters at
    all is indeterminate, not suspicious: isolation may just be graph
    sparsity.
    """
    return _pairing_verdict(view._pairing, subject, pairing_threshold(n, p, alpha))


def _pairing_verdict(tally: _PairingTally, subject: int, threshold: int) -> PairingVerdict:
    paired = tally.paired.get(subject, 0) // 2  # each paired encounter contributes both directions
    unpaired = tally.unpaired.get(subject, 0)
    if paired == 0 and unpaired == 0:
        return PairingVerdict(status="indeterminate", paired=0, unpaired=0, threshold=0)
    status = "trusted" if unpaired == 0 or paired >= threshold else "suspicious"
    return PairingVerdict(status=status, paired=paired, unpaired=unpaired, threshold=threshold)


def detect_collusion(view: LocalView, delta: int, epsilon: float) -> frozenset[tuple[tuple[int, int], int]]:
    """Pairs co-meeting in k consecutive window intervals with p**k < epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    index = view.index
    t = index.claim_t
    window = (t >= max(1, view.as_of - delta + 1)) & (t <= view.as_of)
    held = view._pairing.mutual & index.claim_forward & window
    # Claims are numbered in sorted order, so a pair's claims lie together
    # by interval: a held claim starts a run unless the claim before it is
    # held and is the same pair's claim for the interval before.
    starts = held.copy()
    starts[1:] &= ~(held[:-1] & index.claim_continues[1:])
    first = np.flatnonzero(starts)
    count = np.cumsum(held)
    length = np.diff(np.append(count[first] - 1, count[-1:])).tolist()
    # p**k never grows with k, so a pair is suspect once its longest run reaches the shortest implausible one
    shortest = next((k for k in range(1, max(length, default=0) + 1) if view.params.p**k < epsilon), None)
    longest: dict[tuple[int, int], int] = {}
    for row, k in zip(first.tolist(), length) if shortest is not None else ():
        if k >= shortest:
            a, b, _ = index.claims[row]
            longest[a, b] = max(longest.get((a, b), 0), k)
    return frozenset(longest.items())


@dataclass
class SuspicionReport:
    """One observer's verdicts, each carrying its evidence."""

    observer: int | None
    as_of: int
    disappeared: frozenset[tuple[int, int]]  # (robot, last interval with evidence; 0 = never)
    unpaired_claims: tuple[tuple[int, int, int], ...]  # (claimer, target, interval)
    collusion_suspects: frozenset[tuple[tuple[int, int], int]]  # (pair, consecutive count)
    pairing: tuple[tuple[int, PairingVerdict], ...]
    revoked: frozenset[int] = field(default_factory=frozenset)

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
            "pairing": {str(r): verdict.to_dict() for r, verdict in self.pairing},
            "revoked": sorted(self.revoked),
        }


RevocationPolicy = Callable[[SuspicionReport], Iterable[int]]


def default_revocation_policy(report: SuspicionReport) -> set[int]:
    """Revoke the disappeared, the under-paired, and both halves of a colluding pair."""
    out = {r for r, _ in report.disappeared}
    out |= {r for r, verdict in report.pairing if verdict.status == "suspicious"}
    for pair, _ in report.collusion_suspects:
        out |= set(pair)
    return out


def update_revocation(report: SuspicionReport, policy: RevocationPolicy | None = None) -> frozenset[int]:
    """Apply a revocation policy to a report; default policy above.

    The returned set is the observer's local blacklist: peers whose
    future exchange offers it ignores.  It is never propagated.
    """
    chosen = default_revocation_policy if policy is None else policy
    return frozenset(chosen(report))


def compile_report(
    view: LocalView,
    delta: int,
    alpha: float,
    epsilon: float,
    policy: RevocationPolicy | None = None,
) -> SuspicionReport:
    """Run every detector over one view and assemble the report."""
    evidence = view.evidence
    disappeared = frozenset(
        (r, evidence.get(r, 0)) for r in detect_disappeared(view, delta)
    )
    tally, threshold = view._pairing, pairing_threshold(view.params.n, view.params.p, alpha)
    pairing = tuple(
        (r, _pairing_verdict(tally, r, threshold)) for r in range(1, view.params.n + 1) if r != view.observer
    )
    report = SuspicionReport(
        observer=view.observer,
        as_of=view.as_of,
        disappeared=disappeared,
        unpaired_claims=view.unpaired_claims(),
        collusion_suspects=detect_collusion(view, delta, epsilon),
        pairing=pairing,
    )
    report.revoked = update_revocation(report, policy)
    return report


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
    :mod:`swarmchain.chain`): accepted entries are claims for the pairing
    cross-check, interval gaps and late starts are coverage gaps, every
    other finding is a verification failure.  A chain that stops short of
    the final interval is a coverage gap too, and missing heads are listed.
    """
    failures: list[tuple[int, int, str]] = []
    gaps: list[tuple[int, int, int]] = []
    missing: list[int] = []
    claims: set[tuple[int, int, int]] = set()

    for robot in sorted(heads):
        head = heads[robot]
        if head is None:
            missing.append(robot)
            continue
        for first, last, reason, peer in walk_chain(head, credentials.get(robot), store, credentials, None):
            if reason is None:
                claims.add((robot, peer, first))
            elif reason in ("interval-gap", "late-start"):
                gaps.append((robot, first, last))
            else:
                failures.append((robot, last, reason))
        if head.interval < total_intervals:
            gaps.append((robot, head.interval + 1, total_intervals))

    unpaired = tuple(sorted((a, b, t) for (a, b, t) in claims if (b, a, t) not in claims))
    encounters = frozenset((a, b, t) for (a, b, t) in claims if a < b and (b, a, t) in claims)
    return AuditReport(
        total_intervals=total_intervals,
        verification_failures=tuple(failures),
        unpaired_claims=unpaired,
        gaps=tuple(gaps),
        missing_heads=tuple(missing),
        encounters=encounters,
    )


def audit_trace(trace: SimTrace) -> AuditReport:
    """Convenience wrapper: audit a finished run's collected heads."""
    return central_audit(
        trace.head_links(), trace.store, trace.credentials, trace.config.intervals
    )
