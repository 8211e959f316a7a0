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

Cost.  A view built from a trace checks each of its links once
(``check_link``) and takes the claims of each link's entries from a
memo the trace's views share, so every stored entry goes through
``check_entry`` once per trace, not once per view.  A report is then one
pass over the view's claims for every pairing tally, the unpaired claims
and the co-meeting intervals, plus O(1) per verdict.  Analyzing a trace
from all n observers is thus O(n * claims per view) set operations on top
of one entry check per stored entry.  The memo assumes the trace's store
and credential table are not changed after the first view is built, as
``LinkStore.closure`` assumes for its cache; a trace given another store
or table object starts a fresh memo.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, NamedTuple

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


class _PairingTally(NamedTuple):
    """What one pass over a view's claims yields for the pairing detectors."""

    paired: dict[int, int]  # robot -> paired claims naming it (a self-claim once)
    unpaired: dict[int, int]  # robot -> decisively unpaired claims naming it
    unpaired_claims: tuple[Claim, ...]  # sorted
    intervals: dict[tuple[int, int], int]  # (a, b), a < b -> bit t set for each interval t paired


@dataclass
class LocalView:
    """Chain content one observer can resolve, verified at ingestion.

    ``accepted`` maps a link digest to the claims of that link's entries
    that pass ``check_entry``.  Views of one trace share the trace's memo;
    a view built directly starts with its own empty one.
    """

    observer: int | None
    as_of: int
    links: dict[Digest, HistoryLink]
    params: SimConfig
    credentials: dict[int, Credential]
    accepted: dict[Digest, tuple[Claim, ...]] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_trace(cls, trace: SimTrace, observer: int) -> "LocalView":
        head = trace.heads.get(observer)
        digests = trace.store.closure(head) if head is not None else frozenset()
        return cls._build(trace, observer, digests)

    @classmethod
    def central(cls, trace: SimTrace) -> "LocalView":
        """The post-task central perspective: union over all collected heads."""
        digests: set[Digest] = set()
        for head in trace.heads.values():
            if head is not None:
                digests |= trace.store.closure(head)
        return cls._build(trace, None, digests)

    @classmethod
    def _build(cls, trace: SimTrace, observer: int | None, digests: Iterable[Digest]) -> "LocalView":
        links: dict[Digest, HistoryLink] = {}
        for d in digests:
            link = trace.store.get(d)
            if link is None:
                continue
            if check_link(link, trace.credentials.get(link.owner_id)) is None:
                links[d] = link
        return cls(
            observer=observer,
            as_of=trace.config.intervals,
            links=links,
            params=trace.config,
            credentials=dict(trace.credentials),
            accepted=_accepted_memo(trace),
        )

    @cached_property
    def evidence(self) -> dict[int, int]:
        """robot id -> latest interval with verified evidence it was alive."""
        seen: dict[int, int] = {}
        for robot, t in self._owners_at | {(b, t) for _, b, t in self.claims}:
            if seen.get(robot, 0) < t:
                seen[robot] = t
        return seen

    @cached_property
    def claims(self) -> frozenset[Claim]:
        """(claimer, target, interval) for every entry in view that passes
        ``check_entry``.

        A link's entries are checked only when ``accepted`` lacks its
        digest.  Sharing that memo across a trace's views is sound because
        every view holds the ``check_link``-verified part of a closure of
        the trace's store: whatever an entry of a link in view references
        and the store holds is in the closure too, so resolving through
        this view's links accepts exactly the entries that resolving
        through the store does.
        """
        links, memo, credentials = self.links, self.accepted, self.credentials
        out: set[Claim] = set()
        for d, link in links.items():
            accepted = memo.get(d)
            if accepted is None:
                t = link.interval
                accepted = memo[d] = tuple(
                    (link.owner_id, entry.peer_id, t)
                    for entry in link.events.entries
                    if check_entry(entry, t, links.get, credentials) is None
                )
            out.update(accepted)
        return frozenset(out)

    @cached_property
    def _owners_at(self) -> frozenset[tuple[int, int]]:
        """(owner, interval) pairs whose link is visible in this view."""
        return frozenset((link.owner_id, link.interval) for link in self.links.values())

    @cached_property
    def _pairing(self) -> _PairingTally:
        """The one pass over ``claims`` that every pairing detector reads.

        A claim is paired when its reverse is claimed too, and decisively
        unpaired when it is not although the counterpart's link for that
        interval is visible; either way it counts for both robots it
        names, once for a self-claim.
        """
        claims, owners_at = self.claims, self._owners_at
        paired: dict[int, int] = {}
        unpaired: dict[int, int] = {}
        omissions: list[Claim] = []
        intervals: dict[tuple[int, int], int] = {}
        for claim in claims:
            a, b, t = claim
            if (b, a, t) in claims:
                if a < b:  # counts the claim and its mirror, which names the same two robots
                    paired[a] = paired.get(a, 0) + 2
                    paired[b] = paired.get(b, 0) + 2
                    pair = (a, b)
                    intervals[pair] = intervals.get(pair, 0) | 1 << t
                elif a == b:
                    paired[a] = paired.get(a, 0) + 1
            elif (b, t) in owners_at:
                unpaired[a] = unpaired.get(a, 0) + 1
                unpaired[b] = unpaired.get(b, 0) + 1
                omissions.append(claim)
        return _PairingTally(paired, unpaired, tuple(sorted(omissions)), intervals)

    def unpaired_claims(self) -> tuple[Claim, ...]:
        """Claims with decisive omission evidence: the counterpart's link for
        that interval is visible and does not record the meeting.  Claims
        whose counterpart link is simply not visible yet prove nothing and
        are not listed."""
        return self._pairing.unpaired_claims

    def paired_intervals(self) -> dict[tuple[int, int], set[int]]:
        """(a, b) with a < b -> intervals in which both sides recorded the meeting."""
        return {
            pair: {t for t in range(mask.bit_length()) if mask >> t & 1}
            for pair, mask in self._pairing.intervals.items()
        }


def _accepted_memo(trace: SimTrace) -> dict[Digest, tuple[Claim, ...]]:
    """The claims memo shared by ``trace``'s views, made on first use.

    It is kept on the trace with the store and credential table it was
    filled from, so a copy of the trace given another store or table
    starts afresh.
    """
    memo = trace.__dict__.get("_accepted_claims")
    if memo is None or memo[0] is not trace.store or memo[1] is not trace.credentials:
        memo = trace.__dict__["_accepted_claims"] = (trace.store, trace.credentials, {})
    return memo[2]


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
    tally = view._pairing
    paired = tally.paired.get(subject, 0) // 2  # each paired encounter contributes both directions
    unpaired = tally.unpaired.get(subject, 0)
    if paired == 0 and unpaired == 0:
        return PairingVerdict(status="indeterminate", paired=0, unpaired=0, threshold=0)
    threshold = pairing_threshold(n, p, alpha)
    status = "trusted" if unpaired == 0 or paired >= threshold else "suspicious"
    return PairingVerdict(status=status, paired=paired, unpaired=unpaired, threshold=threshold)


def detect_collusion(view: LocalView, delta: int, epsilon: float) -> frozenset[tuple[tuple[int, int], int]]:
    """Pairs co-meeting in k consecutive window intervals with p**k < epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    p = view.params.p
    window_start = max(1, view.as_of - delta + 1)
    suspects: set[tuple[tuple[int, int], int]] = set()
    for pair, mask in view._pairing.intervals.items():
        run = best = 0
        for t in range(window_start, view.as_of + 1):
            if mask >> t & 1:
                run += 1
                if run > best:
                    best = run
            else:
                run = 0
        if best >= 1 and p**best < epsilon:
            suspects.add((pair, best))
    return frozenset(suspects)


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
    pairing = tuple(
        (r, check_pairing(view, r, alpha, view.params.n, view.params.p))
        for r in range(1, view.params.n + 1)
        if r != view.observer
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
