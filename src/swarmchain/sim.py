"""Discrete-interval swarm simulation with configurable misbehavior.

Each interval samples an encounter graph, runs one exchange per meeting
pair, and closes with every active robot signing a new history link over
the exchanges it could verify.  Robots listed in adversary profiles
deviate in one of five ways:

* ``refuse_record``  -- hands its history over but records nobody.
* ``refuse_give``    -- withholds its history; peers have nothing to record.
* ``disappear``      -- absent between ``from_t`` and ``to_t``: no meetings,
                        no new links.
* ``collude``        -- the listed group exchanges genuine records with each
                        other every interval whether or not they met.
* ``forge_claim``    -- presents fabricated history in the target's name at
                        every meeting and plants an unwitnessed entry for
                        the target in its own chain.

A run is a pure function of its :class:`SimConfig`: identities derive
from the seed, interval graphs come from per-interval child streams of
the root seed, and exchanges execute in sorted order.  Traces therefore
serialize to byte-identical JSON for identical configs.

Each interval is decided as a table with one row per robot: its offer,
the reason :func:`check_offer` gives for it, and its behaviour flags
(withholds its history, refuses to record).  A row is made on the
robot's first exchange of the interval, so a robot that meets nobody
makes no offer and signs no genesis.  Each direction of an exchange is
then one lookup in ``_DIRECTIONS`` by (giver withholds, receiver
refuses, offer refused), and a note is formatted only for an anomaly.
Every offer a receiver records is queued as its exchange runs; in
sorted edge order they arrive in ascending giver order (see the
``chain`` docstring), so closing the interval builds each event list
without sorting it.

Trace format, version 3 (:meth:`SimTrace.to_dict`)::

    format, version        "swarmchain-trace", 3
    manifest, config       the run manifest (or null) and the SimConfig
    central_verify_key     hex
    credentials            [{robot_id, verify_key, cert}], by robot id
    graphs                 [{interval, n, u: [...], v: [...]}], one per
                           interval in order; edge k is (u[k], v[k]), the
                           edges strictly ascending with 1 <= u < v <= n
    links                  [hex of encode_link(link)], by (owner, interval, digest)
    heads                  {"robot id": hex digest or null}
    exchanges              {interval: [...], a: [...], b: [...], flags: [...],
                            notes: [[record, "note"], ...]}

The exchange log is stored as columns: record k is (interval[k], a[k],
b[k], flags[k]) with 1 <= a < b <= n, and the bits 0-4 of its flags are
``a_gave``, ``b_gave``, ``a_recorded``, ``b_recorded`` and ``fabricated``.
``notes`` holds each note of each record that has one, in record order,
as ``[record index, note]``.  Loading checks every column item and
names the first bad one (``exchanges.flags[7]``, ``graphs[2].u[0]``), then
rebuilds the same :class:`ExchangeRecord` and ``EncounterGraph`` values.
Any other version is refused.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from operator import lt
from typing import Any, Iterable, Mapping, NamedTuple

import numpy as np

from . import __version__
from .chain import (
    GENESIS,
    EventList,
    HistoryLink,
    HistoryOffer,
    LinkStore,
    build_event_list,
    check_offer,
    decode_link,
    encode_link,
    extend_history,
    link_digest,
    offer_history,
    sign_link,
)
from .crypto import (
    Credential,
    Digest,
    SigningIdentity,
    provision_swarm,
    sign,
    verify_credential,
)
from .graph import EncounterGraph, gen_interval_graph

TRACE_FORMAT = "swarmchain-trace"
TRACE_VERSION = 3

# Provisioning makes n keys before interval 1 and sampling one interval
# allocates about 16 n**2 bytes (64 MiB at the bound).
MAX_ROBOTS = 2048

BEHAVIOR_HONEST = "honest"
BEHAVIORS = ("refuse_record", "refuse_give", "disappear", "collude", "forge_claim")


class ConfigError(ValueError):
    """Invalid simulation configuration; names the offending field."""

    def __init__(self, config_field: str, message: str) -> None:
        super().__init__(f"field '{config_field}': {message}")
        self.field = config_field


class TraceError(ValueError):
    """Invalid or corrupt trace data; carries the location of the first failure."""

    def __init__(self, location: str, message: str) -> None:
        super().__init__(f"{location}: {message}")
        self.location = location


class DuplicateExchangeError(RuntimeError):
    """A pair can exchange history at most once per interval."""


# One direction of an exchange, giver -> receiver: (gave, recorded, note
# kind or None), at the giver's code in the interval table plus 1 if the
# receiver refuses to record.  A receiver that refuses outranks a refused
# offer: its note is "unrecorded".
_WITHHOLDS, _REFUSED, _VALID = 0, 2, 4
_DIRECTIONS = (
    (False, False, "withheld"),
    (False, False, "withheld"),
    (True, False, "invalid-offer"),
    (True, False, "unrecorded"),
    (True, True, None),
    (True, False, "unrecorded"),
)


def _is_int(value: Any) -> bool:
    # JSON true/false load as bools, which Python counts as ints.
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class AdversaryProfile:
    """Which robots misbehave and how."""

    behavior: str
    robots: frozenset[int]
    from_t: int | None = None
    to_t: int | None = None
    target: int | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"behavior": self.behavior, "robots": sorted(self.robots)}
        if self.from_t is not None:
            out["from_t"] = self.from_t
        if self.to_t is not None:
            out["to_t"] = self.to_t
        if self.target is not None:
            out["target"] = self.target
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], where: str = "adversaries") -> "AdversaryProfile":
        known = {"behavior", "robots", "from_t", "to_t", "target"}
        for key in data:
            if key not in known:
                raise ConfigError(f"{where}.{key}", "unknown field")
        behavior = data.get("behavior")
        if behavior not in BEHAVIORS:
            raise ConfigError(f"{where}.behavior", f"must be one of {BEHAVIORS}, got {behavior!r}")
        robots = data.get("robots")
        if not isinstance(robots, (list, tuple)) or not all(_is_int(r) for r in robots):
            raise ConfigError(f"{where}.robots", "must be a list of robot ids")
        return cls(
            behavior=behavior,
            robots=frozenset(robots),
            from_t=data.get("from_t"),
            to_t=data.get("to_t"),
            target=data.get("target"),
        )


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines a run."""

    n: int
    p: float
    intervals: int
    delta: int = 3
    alpha: float = 0.0
    window: int | None = None
    seed: int | None = 0
    adversaries: tuple[AdversaryProfile, ...] = ()

    def __post_init__(self) -> None:
        self.validate()

    @property
    def resolved_window(self) -> int:
        return self.delta if self.window is None else self.window

    def validate(self) -> None:
        if not _is_int(self.n) or not 1 <= self.n <= MAX_ROBOTS:
            raise ConfigError("n", f"robot count must be an integer in 1..{MAX_ROBOTS}, got {self.n!r}")
        if not (_is_int(self.p) or isinstance(self.p, float)) or not 0.0 <= self.p <= 1.0:
            raise ConfigError("p", f"edge probability must be in [0, 1], got {self.p!r}")
        if not _is_int(self.intervals) or self.intervals < 1:
            raise ConfigError("intervals", f"must be an integer >= 1, got {self.intervals!r}")
        if not _is_int(self.delta) or not 1 <= self.delta <= self.intervals:
            raise ConfigError(
                "delta", f"must be an integer in 1..intervals={self.intervals}, got {self.delta!r}"
            )
        if not (_is_int(self.alpha) or isinstance(self.alpha, float)) or not 0.0 <= self.alpha < 1.0:
            raise ConfigError("alpha", f"assumed bad fraction must be in [0, 1), got {self.alpha!r}")
        if self.window is not None and (not _is_int(self.window) or self.window < 1):
            raise ConfigError("window", f"must be an integer >= 1 or null, got {self.window!r}")
        if self.seed is not None and (not _is_int(self.seed) or self.seed < 0):
            raise ConfigError("seed", f"must be a non-negative integer or null, got {self.seed!r}")
        self._validate_adversaries()

    def _validate_adversaries(self) -> None:
        seen: set[int] = set()
        for idx, profile in enumerate(self.adversaries):
            where = f"adversaries[{idx}]"
            if profile.behavior not in BEHAVIORS:
                raise ConfigError(f"{where}.behavior", f"unknown behavior {profile.behavior!r}")
            if not profile.robots:
                raise ConfigError(f"{where}.robots", "profile lists no robots")
            for name in ("from_t", "to_t", "target"):
                value = getattr(profile, name)
                if value is not None and not _is_int(value):
                    raise ConfigError(f"{where}.{name}", f"must be an integer, got {value!r}")
            for r in profile.robots:
                if not _is_int(r) or not 1 <= r <= self.n:
                    raise ConfigError(f"{where}.robots", f"robot id {r!r} is not an integer in 1..{self.n}")
                if r in seen:
                    raise ConfigError(f"{where}.robots", f"robot {r} appears in two profiles")
                seen.add(r)
            if profile.behavior == "disappear":
                if profile.from_t is None or profile.to_t is None:
                    raise ConfigError(f"{where}.from_t", "disappear needs from_t and to_t")
                if not 1 <= profile.from_t <= profile.to_t <= self.intervals:
                    raise ConfigError(
                        f"{where}.from_t",
                        f"need 1 <= from_t <= to_t <= intervals={self.intervals}, "
                        f"got {profile.from_t}..{profile.to_t}",
                    )
            elif profile.from_t is not None or profile.to_t is not None:
                raise ConfigError(f"{where}.from_t", f"{profile.behavior} takes no interval window")
            if profile.behavior == "collude" and len(profile.robots) < 2:
                raise ConfigError(f"{where}.robots", "collusion needs at least two robots")
            if profile.behavior == "forge_claim":
                if profile.target is None or not 1 <= profile.target <= self.n:
                    raise ConfigError(f"{where}.target", f"need a target id in 1..{self.n}")
                if profile.target in profile.robots:
                    raise ConfigError(f"{where}.target", "target cannot be one of the forgers")
            elif profile.target is not None:
                raise ConfigError(f"{where}.target", f"{profile.behavior} takes no target")
        if seen and len(seen) / self.n > self.alpha:
            raise ConfigError(
                "alpha",
                f"{len(seen)}/{self.n} robots misbehave but alpha={self.alpha}; "
                "alpha must be at least the misbehaving fraction",
            )

    def adversary_ids(self) -> frozenset[int]:
        out: set[int] = set()
        for profile in self.adversaries:
            out |= profile.robots
        return frozenset(out)

    def colluder_pairs(self) -> frozenset[tuple[int, int]]:
        """(a, b) with a < b for every two robots of one colluding group."""
        groups = (sorted(a.robots) for a in self.adversaries if a.behavior == "collude")
        return frozenset(pair for group in groups for pair in combinations(group, 2))

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "p": self.p,
            "intervals": self.intervals,
            "delta": self.delta,
            "alpha": self.alpha,
            "window": self.window,
            "seed": self.seed,
            "adversaries": [a.to_dict() for a in self.adversaries],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimConfig":
        if not isinstance(data, Mapping):
            raise ConfigError("config", f"must be an object, got {type(data).__name__}")
        known = {"n", "p", "intervals", "delta", "alpha", "window", "seed", "adversaries"}
        for key in data:
            if key not in known:
                raise ConfigError(key, "unknown field")
        for required in ("n", "p", "intervals"):
            if required not in data:
                raise ConfigError(required, "required field is missing")
        raw_adversaries = data.get("adversaries", [])
        if not isinstance(raw_adversaries, list):
            raise ConfigError("adversaries", "must be a list of profiles")
        profiles = tuple(
            AdversaryProfile.from_dict(entry, where=f"adversaries[{i}]")
            for i, entry in enumerate(raw_adversaries)
        )
        return cls(
            n=data["n"],
            p=data["p"],
            intervals=data["intervals"],
            delta=data.get("delta", 3),
            alpha=data.get("alpha", 0.0),
            window=data.get("window"),
            seed=data.get("seed", None),
            adversaries=profiles,
        )


class ExchangeRecord(NamedTuple):
    """Outcome of one meeting, from both sides; a < b."""

    interval: int
    a: int
    b: int
    a_gave: bool
    b_gave: bool
    a_recorded: bool
    b_recorded: bool
    fabricated: bool = False
    notes: tuple[str, ...] = ()


def apply_disappearance(profiles: Iterable[AdversaryProfile], t: int, n: int) -> frozenset[int]:
    """Robot ids active during interval ``t``: everyone outside a disappearance window."""
    absent: set[int] = set()
    for profile in profiles:
        if profile.behavior == "disappear" and profile.from_t <= t <= profile.to_t:
            absent |= profile.robots
    return frozenset(r for r in range(1, n + 1) if r not in absent)


@dataclass
class SimTrace:
    """Everything a run produced; a pure function of its config."""

    config: SimConfig
    central_verify_key: bytes
    credentials: dict[int, Credential]
    graphs: tuple[EncounterGraph, ...]
    heads: dict[int, Digest | None]
    store: LinkStore
    exchanges: tuple[ExchangeRecord, ...]

    def head_link(self, robot_id: int) -> HistoryLink | None:
        d = self.heads.get(robot_id)
        return None if d is None else self.store.get(d)

    def head_links(self) -> dict[int, HistoryLink | None]:
        return {r: self.head_link(r) for r in range(1, self.config.n + 1)}

    def to_dict(self, manifest: Mapping[str, Any] | None = None) -> dict[str, Any]:
        links = sorted(self.store.links(), key=lambda l: (l.owner_id, l.interval, link_digest(l)))
        return {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "manifest": dict(manifest) if manifest else None,
            "config": self.config.to_dict(),
            "central_verify_key": self.central_verify_key.hex(),
            "credentials": [
                {
                    "robot_id": c.robot_id,
                    "verify_key": c.verify_key.hex(),
                    "cert": c.cert.hex(),
                }
                for _, c in sorted(self.credentials.items())
            ],
            "graphs": [_graph_columns(g) for g in self.graphs],
            "links": [encode_link(link).hex() for link in links],
            "heads": {
                str(r): (d.hex() if d is not None else None) for r, d in sorted(self.heads.items())
            },
            "exchanges": _exchange_columns(self.exchanges),
        }

    def to_json(self, manifest: Mapping[str, Any] | None = None) -> str:
        return dump_json(self.to_dict(manifest))

    @classmethod
    def from_json(cls, text: str) -> "SimTrace":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TraceError(f"offset {exc.pos}", f"not valid JSON: {exc.msg}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimTrace":
        if not isinstance(data, Mapping):
            raise TraceError("document", "trace must be a JSON object")
        if data.get("format") != TRACE_FORMAT:
            raise TraceError("format", f"expected {TRACE_FORMAT!r}, got {data.get('format')!r}")
        if data.get("version") != TRACE_VERSION:
            raise TraceError("version", f"unsupported version {data.get('version')!r}")
        try:
            config = SimConfig.from_dict(data["config"])
        except KeyError:
            raise TraceError("config", "missing") from None
        except ConfigError as exc:
            raise TraceError(f"config.{exc.field}", str(exc)) from exc

        # The credential table is the trust root for every entry in the
        # trace, so each certificate is checked against central control.
        central = _hex_field(data, "central_verify_key")
        credentials: dict[int, Credential] = {}
        for i, entry in enumerate(_list_field(data, "credentials")):
            where = f"credentials[{i}]"
            try:
                credential = Credential(
                    robot_id=entry["robot_id"],
                    verify_key=bytes.fromhex(entry["verify_key"]),
                    cert=bytes.fromhex(entry["cert"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceError(where, f"bad credential: {exc}") from exc
            robot = credential.robot_id
            if not _is_int(robot) or not 1 <= robot <= config.n:
                raise TraceError(where, f"robot_id must be an integer in 1..{config.n}, got {robot!r}")
            if robot in credentials:
                raise TraceError(where, f"repeated robot_id {robot}")
            if not verify_credential(credential, central):
                raise TraceError(where, "certificate does not verify under central_verify_key")
            credentials[robot] = credential
        for r in range(1, config.n + 1):
            if r not in credentials:
                raise TraceError("credentials", f"missing credential for robot {r}")

        graphs = [_graph_from_dict(entry, config, i) for i, entry in enumerate(_list_field(data, "graphs"))]

        store = LinkStore()
        for i, text in enumerate(_list_field(data, "links")):
            try:
                store.insert(decode_link(bytes.fromhex(text), credentials))
            except (TypeError, ValueError) as exc:  # EncodingError is a ValueError
                raise TraceError(f"links[{i}]", f"bad link: {exc}") from exc

        heads: dict[int, Digest | None] = {}
        raw_heads = data.get("heads")
        if not isinstance(raw_heads, Mapping):
            raise TraceError("heads", "must be an object")
        for key, value in raw_heads.items():
            where = f"heads.{key}"
            try:
                robot = int(key)
            except (TypeError, ValueError):
                raise TraceError(where, "robot id must be an integer") from None
            if str(robot) != key:  # int() also reads "+3", " 7", "1_0", "0010" and other digit scripts
                raise TraceError(where, f"robot id must be written as {str(robot)!r}")
            if not 1 <= robot <= config.n or robot in heads:
                raise TraceError(where, f"robot id must be a distinct integer in 1..{config.n}")
            if value is None:
                heads[robot] = None
                continue
            if not isinstance(value, str):
                raise TraceError(where, f"must be a hex digest or null, got {value!r}")
            try:
                d = Digest.fromhex(value)
            except ValueError as exc:
                raise TraceError(where, f"bad digest: {exc}") from exc
            if d not in store:
                raise TraceError(where, "head digest does not resolve to a stored link")
            heads[robot] = d

        return cls(
            config=config,
            central_verify_key=central,
            credentials=credentials,
            graphs=tuple(graphs),
            heads=heads,
            store=store,
            exchanges=_exchanges_from_columns(data.get("exchanges"), config),
        )


# _FLAG_BITS[flags] is (a_gave, b_gave, a_recorded, b_recorded, fabricated).
_FLAG_BITS = tuple(tuple(bool(flags >> bit & 1) for bit in range(5)) for flags in range(32))
_FLAGS = {bits: flags for flags, bits in enumerate(_FLAG_BITS)}
_RECORD_TAILS = tuple((*bits, ()) for bits in _FLAG_BITS)  # the flag fields and no notes


def _graph_columns(graph: EncounterGraph) -> dict[str, Any]:
    edges = sorted(graph.edges)
    return {"interval": graph.interval, "n": graph.n, "u": [u for u, _ in edges], "v": [v for _, v in edges]}


def _exchange_columns(records: tuple[ExchangeRecord, ...]) -> dict[str, list]:
    columns = list(zip(*records)) or [()] * len(ExchangeRecord._fields)
    interval, a, b, *bits, notes = columns
    return {
        "interval": list(interval),
        "a": list(a),
        "b": list(b),
        "flags": list(map(_FLAGS.__getitem__, zip(*bits))),
        "notes": [[k, note] for k, texts in enumerate(notes) if texts for note in texts],
    }


def _int_column(data: Mapping[str, Any], key: str, where: str, low: int, high: int) -> list[int]:
    """``data[key]``, a list of integers (not bools) in low..high; a
    refusal names the column, or its first bad item as ``where.key[k]``."""
    values = data.get(key)
    if not isinstance(values, list):
        raise TraceError(f"{where}.{key}", f"must be a list of integers, got {type(values).__name__}")
    if not set(map(type, values)) <= {int} or values and (min(values) < low or max(values) > high):
        k = next(k for k, value in enumerate(values) if not (_is_int(value) and low <= value <= high))
        raise TraceError(f"{where}.{key}[{k}]", f"must be an integer in {low}..{high}, got {values[k]!r}")
    return values


def _first_not_below(where: str, low: list[int], high: list[int], what: str) -> None:
    """Refuse, at ``where[k]``, the first k with ``low[k] >= high[k]``."""
    if not all(map(lt, low, high)):
        k = next(k for k, pair in enumerate(zip(low, high)) if not lt(*pair))
        raise TraceError(f"{where}[{k}]", f"{what}, got {low[k]!r} and {high[k]!r}")


def _graph_from_dict(data: Any, config: SimConfig, i: int) -> EncounterGraph:
    """The graph record at ``graphs[i]`` as the simulator writes it: the
    graph of interval i + 1 (so at most one per interval, in order; a
    trace built by hand may hold fewer), over the run's ``n``, with edge
    columns ``u`` and ``v`` of equal length whose pairs are strictly
    ascending (hence distinct) with 1 <= u < v <= n."""
    where = f"graphs[{i}]"
    if not isinstance(data, dict):
        raise TraceError(where, "bad graph: must be an object")
    try:
        n, interval = data["n"], data["interval"]
    except KeyError as exc:
        raise TraceError(where, f"bad graph: missing {exc}") from None
    if not _is_int(interval) or interval != i + 1 or interval > config.intervals:
        raise TraceError(where, f"bad graph: expected interval {i + 1} of 1..{config.intervals}, got {interval!r}")
    if not _is_int(n) or n != config.n:
        raise TraceError(where, f"bad graph: n must be {config.n}, got {n!r}")
    u = _int_column(data, "u", where, 1, n)
    v = _int_column(data, "v", where, 1, n)
    if len(u) != len(v):
        raise TraceError(f"{where}.v", f"has {len(v)} items, {where}.u has {len(u)}")
    _first_not_below(f"{where}.v", u, v, "an edge (u, v) needs u < v")
    edges = list(zip(u, v))
    # Edge k against edge k - 1; edge 0 against (0, 0), below every edge.
    _first_not_below(f"{where}.u", [(0, 0), *edges[:-1]], edges, "edges must be strictly ascending")
    return EncounterGraph(n=n, interval=interval, edges=frozenset(edges))


def _exchanges_from_columns(data: Any, config: SimConfig) -> tuple[ExchangeRecord, ...]:
    """The exchange log from its columns, holding only what the simulator
    writes: intervals of the run, robots 1 <= a < b <= n, flags 0..31 and
    ``[record, note]`` pairs with record indices in range and
    non-decreasing.  A refusal names the column item (``exchanges.a[3]``)."""
    if not isinstance(data, dict):  # JSON objects load as dicts
        raise TraceError("exchanges", "must be an object of columns")
    interval = _int_column(data, "interval", "exchanges", 1, config.intervals)
    a = _int_column(data, "a", "exchanges", 1, config.n)
    b = _int_column(data, "b", "exchanges", 1, config.n)
    flags = _int_column(data, "flags", "exchanges", 0, len(_FLAG_BITS) - 1)
    for key, column in (("a", a), ("b", b), ("flags", flags)):
        if len(column) != len(interval):
            raise TraceError(f"exchanges.{key}", f"has {len(column)} items, exchanges.interval has {len(interval)}")
    _first_not_below("exchanges.a", a, b, "a must be below b")
    # ExchangeRecord._make without its length check: each tail holds the other six fields.
    new, tails = tuple.__new__, _RECORD_TAILS
    records = [new(ExchangeRecord, (t, x, y) + tails[f]) for t, x, y, f in zip(interval, a, b, flags)]

    notes = data.get("notes")
    if not isinstance(notes, list):
        raise TraceError("exchanges.notes", f"must be a list of [record, note] pairs, got {type(notes).__name__}")
    texts: dict[int, list[str]] = {}
    last = 0
    for k, item in enumerate(notes):
        if not (isinstance(item, list) and len(item) == 2 and _is_int(item[0]) and isinstance(item[1], str)):
            raise TraceError(f"exchanges.notes[{k}]", f"must be a [record, note] pair, got {item!r}")
        if not last <= item[0] < len(records):
            raise TraceError(
                f"exchanges.notes[{k}]",
                f"record index must be in {last}..{len(records) - 1} (non-decreasing), got {item[0]}",
            )
        last = item[0]
        texts.setdefault(last, []).append(item[1])
    for k, record_notes in texts.items():
        records[k] = records[k]._replace(notes=tuple(record_notes))
    return tuple(records)


def dump_json(doc: Mapping[str, Any]) -> str:
    """The text of every JSON artifact: keys sorted, no indentation (only
    then does CPython encode in C), one trailing newline."""
    return json.dumps(doc, sort_keys=True) + "\n"


def _hex_field(data: Mapping[str, Any], key: str) -> bytes:
    value = data.get(key)
    if not isinstance(value, str):
        raise TraceError(key, "must be a hex string")
    try:
        return bytes.fromhex(value)
    except ValueError as exc:
        raise TraceError(key, f"bad hex: {exc}") from exc


def _list_field(data: Mapping[str, Any], key: str) -> list:
    value = data.get(key)
    if not isinstance(value, list):
        raise TraceError(key, "must be a list")
    return value


class Simulation:
    """Single-run engine; use :func:`run_simulation` unless a test needs
    exchange-level control."""

    def __init__(self, config: SimConfig) -> None:
        config.validate()
        if config.seed is None:
            raise ConfigError("seed", "a concrete seed is required to run a simulation")
        self.config = config
        central_vk, identities = provision_swarm(config.n, config.seed)
        self.central_verify_key = central_vk
        self.identities: dict[int, SigningIdentity] = {i.robot_id: i for i in identities}
        self.credentials: dict[int, Credential] = {
            i.robot_id: i.credential for i in identities
        }
        self.store = LinkStore()
        self.heads: dict[int, HistoryLink | None] = {r: None for r in range(1, config.n + 1)}
        self.behavior: dict[int, str] = {r: BEHAVIOR_HONEST for r in range(1, config.n + 1)}
        self.colluder_pairs = config.colluder_pairs()
        self.forge_target: dict[int, int] = {}
        for profile in config.adversaries:
            for r in profile.robots:
                self.behavior[r] = profile.behavior
            if profile.behavior == "forge_claim":
                for r in profile.robots:
                    self.forge_target[r] = profile.target
        self.graphs: list[EncounterGraph] = []
        self.exchanges: list[ExchangeRecord] = []
        self._queues: dict[int, list[HistoryOffer]] = {}
        self._pairs_this_interval: set[tuple[int, int]] = set()
        # The interval table: robot -> (offer or None, giver code, 1 if it refuses to record).
        self._rows: dict[int, tuple[HistoryOffer | None, int, int]] = {}
        self._forgeries: dict[int, tuple[HistoryOffer, str | None]] = {}

    def _row(self, r: int, t: int) -> tuple[HistoryOffer | None, int, int]:
        """Robot ``r``'s row of the interval-``t`` table (see the module
        docstring), made on its first exchange of the interval."""
        behavior = self.behavior[r]
        refuses = int(behavior == "refuse_record")
        if behavior == "refuse_give":
            row = (None, _WITHHOLDS, refuses)
        else:
            offer = offer_history(self.identities[r], self.heads[r])
            reason = check_offer(offer, t, self.store, self.config.resolved_window, self.credentials)
            row = (offer, _VALID if reason is None else _REFUSED, refuses)
        self._rows[r] = row
        return row

    def _forgery(self, forger: int, t: int) -> tuple[HistoryOffer, str | None]:
        """The forged offer ``forger`` presents at ``t`` and the reason
        :func:`check_offer` refuses it, or None; made once per interval."""
        checked = self._forgeries.get(forger)
        if checked is None:
            offer = self._forged_offer(forger, t)
            reason = check_offer(offer, t, self.store, self.config.resolved_window, self.credentials)
            checked = self._forgeries[forger] = (offer, reason)
        return checked

    def _forged_offer(self, forger: int, t: int) -> HistoryOffer:
        """Fabricated history presented in the target's name.

        The forger cannot produce the target's signature, so it signs
        with its own key; verification under the target's credential
        must fail.
        """
        target_cred = self.credentials[self.forge_target[forger]]
        if t == 1:
            return HistoryOffer(
                credential=target_cred,
                link=None,
                genesis_signature=sign(self.identities[forger], GENESIS),
            )
        forged = sign_link(self.identities[forger], target_cred.robot_id, EventList.empty(t - 1), GENESIS)
        self.store.insert(forged)
        return HistoryOffer(credential=target_cred, link=forged)

    # -- protocol steps ---------------------------------------------------

    def exchange(self, i: int, j: int, t: int, fabricated: bool = False) -> ExchangeRecord:
        """Run the one allowed exchange between ``i`` and ``j`` for interval ``t``.

        In each direction, a < b first, the giver hands over its offer
        unless it withholds its history, and the receiver records an offer
        that :func:`check_offer` accepted unless it refuses to record; then
        each forger presents its forged offer.  Every anomaly becomes a
        note ``reason:giver->receiver``, in that order.
        """
        if i == j:
            raise ValueError("a robot cannot exchange history with itself")
        pair = (i, j) if i < j else (j, i)
        pairs = self._pairs_this_interval
        if pair in pairs:
            raise DuplicateExchangeError(f"pair {pair} already exchanged in interval {t}")
        pairs.add(pair)
        a, b = pair

        rows = self._rows
        offer_a, give_a, refuses_a = rows.get(a) or self._row(a, t)
        offer_b, give_b, refuses_b = rows.get(b) or self._row(b, t)
        a_gave, b_recorded, note_ab = _DIRECTIONS[give_a + refuses_b]
        b_gave, a_recorded, note_ba = _DIRECTIONS[give_b + refuses_a]
        if b_recorded:
            self._queues[b].append(offer_a)
        if a_recorded:
            self._queues[a].append(offer_b)
        notes: tuple[str, ...] = ()
        if note_ab:
            notes = (f"{note_ab}:{a}->{b}", f"{note_ba}:{b}->{a}") if note_ba else (f"{note_ab}:{a}->{b}",)
        elif note_ba:
            notes = (f"{note_ba}:{b}->{a}",)
        if a in self.forge_target or b in self.forge_target:
            notes += self._present_forgeries(a, b, t)

        # ExchangeRecord(...) without its __new__ frame, as _exchanges_from_columns builds it.
        record = tuple.__new__(ExchangeRecord, (t, a, b, a_gave, b_gave, a_recorded, b_recorded, fabricated, notes))
        self.exchanges.append(record)
        return record

    def _present_forgeries(self, a: int, b: int, t: int) -> tuple[str, ...]:
        """Each forger of the pair (a < b), a first, presents its forged
        offer to the other, which queues it if :func:`check_offer`
        accepted it; the notes of those it refused."""
        notes = []
        for forger, victim in ((a, b), (b, a)):
            if forger in self.forge_target:
                forged, reason = self._forgery(forger, t)
                if reason is None:
                    self._queues[victim].append(forged)
                else:
                    notes.append(f"forged-offer-rejected:{forger}->{victim}")
        return tuple(notes)

    def _close_interval(self, r: int, t: int) -> None:
        offers = self._queues[r]
        if r in self.forge_target:
            # A forger plants an unwitnessed entry for its target, unless it holds a real one.
            offers.append(self._forgery(r, t)[0])
        self.heads[r] = extend_history(self.identities[r], self.heads[r], build_event_list(t, offers), self.store)

    def run(self) -> SimTrace:
        cfg = self.config
        for t in range(1, cfg.intervals + 1):
            active = apply_disappearance(cfg.adversaries, t, cfg.n)
            # child t - 1 of the root seed, as SeedSequence(seed).spawn gives it, made when used
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(t - 1,)))
            g = gen_interval_graph(cfg.n, cfg.p, rng, interval=t)
            self.graphs.append(g)
            self._queues = {r: [] for r in range(1, cfg.n + 1)}
            self._pairs_this_interval = set()
            self._rows, self._forgeries = {}, {}
            edges = g.ordered_edges
            if len(active) < cfg.n:
                edges = [e for e in edges if e[0] in active and e[1] in active]
            fabricated = {
                pair
                for pair in self.colluder_pairs
                if pair[0] in active and pair[1] in active and pair not in g.edges
            }
            if fabricated:
                edges = sorted([*edges, *fabricated])
            for pair in edges:
                a, b = pair
                self.exchange(a, b, t, pair in fabricated)
            for r in sorted(active):
                self._close_interval(r, t)
        return SimTrace(
            config=cfg,
            central_verify_key=self.central_verify_key,
            credentials=dict(self.credentials),
            graphs=tuple(self.graphs),
            heads={r: (None if h is None else link_digest(h)) for r, h in self.heads.items()},
            store=self.store,
            exchanges=tuple(self.exchanges),
        )


def run_simulation(config: SimConfig) -> SimTrace:
    """Run one deterministic simulation of ``config``."""
    return Simulation(config).run()


def run_manifest(
    config: SimConfig,
    config_path: str | None = None,
    output_path: str | None = None,
) -> dict[str, Any]:
    """Reproducibility stamp embedded in every emitted artifact."""
    return {
        "tool": "swarmchain",
        "tool_version": __version__,
        "seed": config.seed,
        "config_path": config_path,
        "output_path": output_path,
        "config": config.to_dict(),
    }
