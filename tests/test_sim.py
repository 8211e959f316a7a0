import json
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from swarmchain.chain import (
    GENESIS,
    EventList,
    HistoryOffer,
    LinkStore,
    build_event_list,
    decode_link,
    encode_link,
    extend_history,
    link_digest,
    signed_digest,
    verify_chain,
)
from swarmchain.crypto import digest, provision_swarm, sign, verify
from swarmchain.detect import LocalView, audit_trace
from swarmchain.graph import gen_interval_graph
from swarmchain.sim import (
    MAX_ROBOTS,
    AdversaryProfile,
    ConfigError,
    DuplicateExchangeError,
    ExchangeRecord,
    SimConfig,
    SimTrace,
    Simulation,
    TraceError,
    apply_disappearance,
    run_simulation,
)


def _entry_naming(link, peer):
    """The entry of ``link`` that witnesses ``peer``, or None."""
    return next((e for e in link.events.entries if e.peer_id == peer), None)


def _peers(link):
    """The peer ids ``link``'s event list holds entries for."""
    return {e.peer_id for e in link.events.entries}


def _profile(behavior, robots, **kwargs):
    return AdversaryProfile(behavior=behavior, robots=frozenset(robots), **kwargs)


# -- configuration -------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(n=0, p=0.5, intervals=3), "n"),
        (dict(n=5, p=1.5, intervals=3), "p"),
        (dict(n=5, p=-0.2, intervals=3), "p"),
        (dict(n=5, p=0.5, intervals=0), "intervals"),
        (dict(n=5, p=0.5, intervals=3, delta=4), "delta"),
        (dict(n=5, p=0.5, intervals=3, delta=0), "delta"),
        (dict(n=5, p=0.5, intervals=3, alpha=1.0), "alpha"),
        (dict(n=5, p=0.5, intervals=3, window=0), "window"),
        (dict(n=MAX_ROBOTS + 1, p=0.5, intervals=3), "n"),
        (dict(n=5, p=0.5, intervals=3, seed=-1), "seed"),
    ],
)
def test_invalid_config_names_field(kwargs, field):
    with pytest.raises(ConfigError) as err:
        SimConfig(**kwargs)
    assert err.value.field == field


@pytest.mark.parametrize(
    "profile,field_part",
    [
        (_profile("refuse_record", []), "robots"),
        (_profile("refuse_record", [9]), "robots"),
        (_profile("disappear", [1]), "from_t"),
        (_profile("disappear", [1], from_t=2, to_t=9), "from_t"),
        (_profile("collude", [1]), "robots"),
        (_profile("forge_claim", [1]), "target"),
        (_profile("forge_claim", [1], target=1), "target"),
        (_profile("refuse_record", [1], target=2), "target"),
        (_profile("refuse_record", [True]), "robots"),
    ],
)
def test_invalid_adversary_profiles(profile, field_part):
    with pytest.raises(ConfigError) as err:
        SimConfig(n=5, p=0.5, intervals=3, alpha=0.5, adversaries=(profile,))
    assert field_part in err.value.field


def _disappear(**window):
    return {"adversaries": [{"behavior": "disappear", "robots": [1], **window}]}


@pytest.mark.parametrize(
    "changes,field",
    [
        ({"n": True}, "n"),
        ({"p": True}, "p"),
        ({"intervals": True}, "intervals"),
        ({"delta": True}, "delta"),
        ({"alpha": False}, "alpha"),
        ({"window": True}, "window"),
        ({"seed": False}, "seed"),
        ({"adversaries": [{"behavior": "refuse_record", "robots": [True]}]}, "adversaries[0].robots"),
        (_disappear(from_t=True, to_t=2), "adversaries[0].from_t"),
        (_disappear(from_t=1, to_t=True), "adversaries[0].to_t"),
        ({"adversaries": [{"behavior": "forge_claim", "robots": [2], "target": True}]}, "adversaries[0].target"),
    ],
)
def test_json_booleans_are_not_numbers(changes, field, honest_trace_25):
    data = {"n": 4, "p": 0.5, "intervals": 3, "delta": 2, "alpha": 0.5, "seed": 1, **changes}
    with pytest.raises(ConfigError) as err:
        SimConfig.from_dict(data)
    assert err.value.field == field
    doc = {**honest_trace_25.to_dict(), "config": data}
    with pytest.raises(TraceError) as err:
        SimTrace.from_dict(doc)
    assert err.value.location == f"config.{field}"


@pytest.mark.parametrize("n", [MAX_ROBOTS + 1, 10**12])
def test_an_oversized_swarm_is_refused_before_anything_is_provisioned(n, monkeypatch, tmp_path, capsys):
    """The bound is checked by validation alone: no swarm of that size is
    provisioned or sampled, here or in the CLI."""
    from swarmchain import sim
    from swarmchain.cli import main

    def never(*args, **kwargs):
        raise AssertionError("provisioned an oversized swarm")

    monkeypatch.setattr(sim, "provision_swarm", never)
    monkeypatch.setattr(sim, "gen_interval_graph", never)
    assert SimConfig(n=MAX_ROBOTS, p=0.5, intervals=1, delta=1).n == MAX_ROBOTS
    with pytest.raises(ConfigError) as err:
        SimConfig(n=n, p=0.5, intervals=1, delta=1)
    assert err.value.field == "n"
    config = SimConfig(n=2, p=0.5, intervals=1, delta=1)
    object.__setattr__(config, "n", n)  # past the dataclass's own validation
    with pytest.raises(ConfigError) as err:
        Simulation(config)
    assert err.value.field == "n"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": n, "p": 0.5, "intervals": 1, "delta": 1, "seed": 1}))
    assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "trace.json")]) == 2
    assert "field 'n'" in capsys.readouterr().err


@pytest.mark.parametrize("n", [MAX_ROBOTS + 1, 10**12])
def test_a_trace_of_an_oversized_swarm_is_refused_at_config_n(n, honest_trace_25, tmp_path, capsys):
    from swarmchain.cli import main

    doc = json.loads(honest_trace_25.to_json())
    doc["config"]["n"] = n
    with pytest.raises(TraceError) as err:
        SimTrace.from_dict(doc)
    assert err.value.location == "config.n"
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--trace", str(path)]) == 2
    assert "config.n" in capsys.readouterr().err


def test_a_trace_with_a_negative_seed_is_refused_at_config_seed(honest_trace_25):
    doc = honest_trace_25.to_dict()
    doc["config"] = {**doc["config"], "seed": -1}
    with pytest.raises(TraceError) as err:
        SimTrace.from_dict(doc)
    assert err.value.location == "config.seed"


def test_adversary_fraction_must_fit_alpha():
    with pytest.raises(ConfigError) as err:
        SimConfig(
            n=5, p=0.5, intervals=3, alpha=0.1,
            adversaries=(_profile("refuse_record", [1, 2]),),
        )
    assert err.value.field == "alpha"


def test_overlapping_profiles_rejected():
    with pytest.raises(ConfigError):
        SimConfig(
            n=5, p=0.5, intervals=3, alpha=0.9,
            adversaries=(_profile("refuse_record", [1]), _profile("refuse_give", [1])),
        )


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        SimConfig.from_dict({"n": 3, "p": 0.5, "intervals": 2, "bogus": 1})
    assert err.value.field == "bogus"


def test_config_roundtrip():
    cfg = SimConfig(
        n=6, p=0.4, intervals=4, delta=2, alpha=0.4, seed=5,
        adversaries=(_profile("disappear", [2], from_t=1, to_t=2),),
    )
    assert SimConfig.from_dict(cfg.to_dict()) == cfg


# -- disappearance -------------------------------------------------------------


def test_disappearance_window():
    profiles = (_profile("disappear", [3], from_t=2, to_t=4),)
    assert apply_disappearance(profiles, 1, 5) == frozenset({1, 2, 3, 4, 5})
    for t in (2, 3, 4):
        assert apply_disappearance(profiles, t, 5) == frozenset({1, 2, 4, 5})
    assert apply_disappearance(profiles, 5, 5) == frozenset({1, 2, 3, 4, 5})


def test_no_profiles_everyone_active():
    assert apply_disappearance((), 3, 4) == frozenset({1, 2, 3, 4})


def test_colluder_pairs_are_the_pairs_within_each_colluding_group():
    cfg = SimConfig(
        n=10, p=0.5, intervals=3, alpha=0.6, seed=1,
        adversaries=(
            _profile("collude", [7, 2, 5]),
            _profile("refuse_record", [1]),
            _profile("collude", [9, 4]),
        ),
    )
    assert cfg.colluder_pairs() == frozenset({(2, 5), (2, 7), (5, 7), (4, 9)})
    assert SimConfig(n=5, p=0.5, intervals=3).colluder_pairs() == frozenset()


def test_total_disappearance_never_in_any_event_list():
    cfg = SimConfig(
        n=6, p=1.0, intervals=3, delta=3, alpha=0.2, seed=8,
        adversaries=(_profile("disappear", [4], from_t=1, to_t=3),),
    )
    trace = run_simulation(cfg)
    assert trace.heads[4] is None
    for link in trace.store.links():
        assert 4 not in _peers(link)
    for record in trace.exchanges:
        assert 4 not in (record.a, record.b)


def test_disappeared_robot_absent_from_effective_edges():
    cfg = SimConfig(
        n=5, p=1.0, intervals=5, delta=3, alpha=0.2, seed=3,
        adversaries=(_profile("disappear", [2], from_t=2, to_t=4),),
    )
    trace = run_simulation(cfg)
    met_by_interval = {
        t: {x.a for x in trace.exchanges if x.interval == t}
        | {x.b for x in trace.exchanges if x.interval == t}
        for t in range(1, 6)
    }
    assert 2 in met_by_interval[1] and 2 in met_by_interval[5]
    for t in (2, 3, 4):
        assert 2 not in met_by_interval[t]


def test_rejoining_robot_has_visible_interval_gap():
    cfg = SimConfig(
        n=5, p=1.0, intervals=5, delta=3, alpha=0.2, seed=3,
        adversaries=(_profile("disappear", [2], from_t=2, to_t=4),),
    )
    trace = run_simulation(cfg)
    head = trace.head_link(2)
    assert head.interval == 5
    prev = trace.store.get(head.prev_digest)
    assert prev.interval == 1  # the outage left intervals 2..4 unchained


# -- honest protocol behavior ---------------------------------------------------


def test_minimal_honest_run():
    trace = run_simulation(SimConfig(n=2, p=1.0, intervals=1, delta=1, seed=1))
    link_1, link_2 = trace.head_link(1), trace.head_link(2)
    assert link_1.interval == 1 and link_2.interval == 1
    assert _peers(link_1) == {2}
    assert _peers(link_2) == {1}


def test_honest_runs_are_bitwise_reproducible():
    cfg = dict(n=12, p=0.4, intervals=3, delta=2, seed=77)
    a = run_simulation(SimConfig(**cfg))
    b = run_simulation(SimConfig(**cfg))
    assert a.to_json() == b.to_json()


def test_honest_conservation(honest_trace_25):
    """Every meeting is recorded by both sides; nothing else is recorded."""
    trace = honest_trace_25
    by_owner = {}
    for link in trace.store.links():
        by_owner[(link.owner_id, link.interval)] = link
    edges = {(g.interval, u, v) for g in trace.graphs for (u, v) in g.edges}
    for g in trace.graphs:
        for u in range(1, trace.config.n + 1):
            link = by_owner[(u, g.interval)]
            recorded = _peers(link)
            met = {v for (t, a, v) in edges if t == g.interval and a == u} | {
                a for (t, a, v) in edges if t == g.interval and v == u
            }
            assert recorded == met


def test_chains_verify_at_full_depth(honest_trace_25):
    trace = honest_trace_25
    for r in range(1, trace.config.n + 1):
        head = trace.head_link(r)
        reason = verify_chain(head, trace.credentials[r], trace.store, depth=3, credentials=trace.credentials)
        assert reason is None, (r, reason)


def test_one_exchange_per_pair_per_interval(honest_trace_25):
    seen = set()
    for record in honest_trace_25.exchanges:
        key = (record.interval, record.a, record.b)
        assert key not in seen
        seen.add(key)


def test_construction_takes_no_memory_per_interval():
    """The per-interval seed streams are derived when each interval runs,
    not spawned up front (one child cost about 370 B)."""
    config = SimConfig(n=2, p=0.5, intervals=20_000, delta=1, seed=1)
    tracemalloc.start()
    try:
        Simulation(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_interval_graphs_come_from_the_spawned_children():
    """Interval t's graph is drawn from child t - 1 of
    ``SeedSequence(seed).spawn``, the streams the simulator always used."""
    config = SimConfig(n=9, p=0.4, intervals=4, delta=2, seed=2024)
    streams = np.random.SeedSequence(config.seed).spawn(config.intervals)
    expected = [
        gen_interval_graph(config.n, config.p, np.random.default_rng(stream), interval=t)
        for t, stream in enumerate(streams, 1)
    ]
    assert list(run_simulation(config).graphs) == expected


def test_duplicate_exchange_raises():
    sim = Simulation(SimConfig(n=3, p=1.0, intervals=1, delta=1, seed=1))
    sim._queues = {r: [] for r in (1, 2, 3)}
    sim.exchange(1, 2, 1)
    with pytest.raises(DuplicateExchangeError):
        sim.exchange(2, 1, 1)
    with pytest.raises(ValueError):
        sim.exchange(2, 2, 1)


def test_shallow_verification_window_still_runs_clean():
    cfg = SimConfig(n=8, p=0.6, intervals=4, delta=2, window=1, seed=12)
    trace = run_simulation(cfg)
    assert cfg.resolved_window == 1
    for record in trace.exchanges:
        assert record.a_recorded and record.b_recorded


def test_window_defaults_to_delta():
    assert SimConfig(n=4, p=0.5, intervals=4, delta=2, seed=1).resolved_window == 2


# -- misbehavior ----------------------------------------------------------------


def test_refuse_record_leaves_victims_claims_unpaired(refuse_record_trace_25):
    trace = refuse_record_trace_25
    adversaries = set(range(1, 9))
    links = {(l.owner_id, l.interval): l for l in trace.store.links()}
    for record in trace.exchanges:
        a, b, t = record.a, record.b, record.interval
        if a in adversaries and b in adversaries:
            continue
        if a in adversaries or b in adversaries:
            bad, good = (a, b) if a in adversaries else (b, a)
            assert _peers(links[(bad, t)]) == set()
            assert bad in _peers(links[(good, t)])


def test_refuse_give_robot_is_never_recorded():
    cfg = SimConfig(
        n=8, p=0.6, intervals=3, delta=3, alpha=0.2, seed=21,
        adversaries=(_profile("refuse_give", [5]),),
    )
    trace = run_simulation(cfg)
    for link in trace.store.links():
        assert 5 not in _peers(link)
    # the withholder still extends its own chain, recording peers it met
    assert trace.head_link(5) is not None
    withheld = [x for x in trace.exchanges if 5 in (x.a, x.b)]
    assert withheld and all(
        (x.a == 5 and not x.a_gave) or (x.b == 5 and not x.b_gave) for x in withheld
    )


def test_colluders_fabricate_every_interval(colluder_trace_25):
    trace = colluder_trace_25
    links = {(l.owner_id, l.interval): l for l in trace.store.links()}
    for t in (1, 2, 3):
        assert 7 in _peers(links[(3, t)])
        assert 3 in _peers(links[(7, t)])
    fabricated = [x for x in trace.exchanges if x.fabricated]
    graph_edges = {(g.interval, u, v) for g in trace.graphs for u, v in g.edges}
    assert all((x.interval, x.a, x.b) not in graph_edges for x in fabricated)
    assert all((x.a, x.b) == (3, 7) for x in fabricated)


def test_colluder_entries_verify_like_real_ones(colluder_trace_25):
    trace = colluder_trace_25
    links = {(l.owner_id, l.interval): l for l in trace.store.links()}
    for t in (2, 3):
        entry = _entry_naming(links[(3, t)], 7)
        resolved = trace.store.get(entry.peer_link_digest)
        assert resolved.owner_id == 7 and resolved.interval == t - 1
        assert verify(entry.peer_credential, signed_digest(resolved), entry.peer_signature)


def test_colluders_never_fake_meetings_with_honest_robots(colluder_trace_25):
    """Fabrication is limited to the colluding group: every other entry in a
    colluder's chain corresponds to a real graph edge."""
    trace = colluder_trace_25
    edges = {(g.interval, u, v) for g in trace.graphs for (u, v) in g.edges}
    for link in trace.store.links():
        if link.owner_id not in (3, 7):
            continue
        for entry in link.events.entries:
            if entry.peer_id in (3, 7):
                continue
            pair = tuple(sorted((link.owner_id, entry.peer_id)))
            assert (link.interval, *pair) in edges


def test_forged_offers_are_rejected_by_recipients():
    cfg = SimConfig(
        n=10, p=0.5, intervals=4, delta=3, alpha=0.2, seed=2,
        adversaries=(_profile("forge_claim", [2], target=9),),
    )
    trace = run_simulation(cfg)
    rejected = [
        note
        for x in trace.exchanges
        for note in x.notes
        if note.startswith("forged-offer-rejected:2->")
    ]
    assert rejected, "the forger met nobody on this seed; pick another"
    # no honest robot's chain contains an entry for the target that the
    # target did not sign
    for link in trace.store.links():
        if link.owner_id == 2:
            continue
        entry = _entry_naming(link, 9)
        if entry is None:
            continue
        if entry.peer_link_digest == GENESIS:
            assert verify(entry.peer_credential, GENESIS, entry.peer_signature)
        else:
            resolved = trace.store.get(entry.peer_link_digest)
            assert resolved.owner_id == 9
            assert verify(entry.peer_credential, signed_digest(resolved), entry.peer_signature)


def test_forger_chain_contains_the_planted_entry():
    cfg = SimConfig(
        n=10, p=0.5, intervals=4, delta=3, alpha=0.2, seed=2,
        adversaries=(_profile("forge_claim", [2], target=9),),
    )
    trace = run_simulation(cfg)
    real = {g.interval for g in trace.graphs if (2, 9) in g.edges}
    planted = []
    link = trace.head_link(2)
    while link is not None:
        entry = _entry_naming(link, 9)
        if entry is not None and link.interval not in real:
            planted.append((link.interval, entry))
        link = trace.store.get(link.prev_digest)
    assert planted
    for t, entry in planted:
        if entry.peer_link_digest == GENESIS:
            assert not verify(entry.peer_credential, GENESIS, entry.peer_signature)
        else:
            resolved = trace.store.get(entry.peer_link_digest)
            assert not verify(entry.peer_credential, signed_digest(resolved), entry.peer_signature)


# -- trace serialization ---------------------------------------------------------


def test_private_keys_never_serialized(honest_trace_25):
    text = honest_trace_25.to_json()
    assert "signing_key" not in text
    from swarmchain.crypto import provision_swarm

    _, identities = provision_swarm(2, seed=1)
    assert "signing_key" not in repr(identities[0])


def test_trace_json_roundtrip(honest_trace_25):
    trace = honest_trace_25
    loaded = SimTrace.from_json(trace.to_json())
    assert loaded.config == trace.config
    assert loaded.heads == trace.heads
    assert loaded.exchanges == trace.exchanges
    assert loaded.graphs == trace.graphs
    assert set(loaded.store.digests()) == set(trace.store.digests())
    assert loaded.to_json() == trace.to_json()


def test_trace_rejects_bad_json():
    with pytest.raises(TraceError) as err:
        SimTrace.from_json("{not json")
    assert "offset" in err.value.location


def test_trace_rejects_wrong_format():
    with pytest.raises(TraceError) as err:
        SimTrace.from_json(json.dumps({"format": "something-else", "version": 1}))
    assert err.value.location == "format"


@pytest.mark.parametrize("version", [1, 2, "3", None])
def test_trace_refuses_a_version_it_cannot_read(version, honest_trace_25, tmp_path, capsys):
    from swarmchain.cli import main

    doc = {**json.loads(honest_trace_25.to_json()), "version": version}
    with pytest.raises(TraceError) as err:
        SimTrace.from_json(json.dumps(doc))
    assert err.value.location == "version"
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(doc))
    assert main(["analyze", "--trace", str(trace)]) == 2
    assert "version" in capsys.readouterr().err


def test_trace_reports_position_of_first_bad_link(honest_trace_25):
    doc = json.loads(honest_trace_25.to_json())
    doc["links"][3] = "zz-not-hex"
    doc["links"][4] = doc["links"][4][:-2]
    with pytest.raises(TraceError) as err:
        SimTrace.from_dict(doc)
    assert err.value.location == "links[3]"


def test_trace_rejects_dangling_head(honest_trace_25):
    doc = json.loads(honest_trace_25.to_json())
    doc["heads"]["1"] = "00" * 32
    with pytest.raises(TraceError) as err:
        SimTrace.from_dict(doc)
    assert err.value.location == "heads.1"


def test_trace_rejects_a_credential_central_control_never_certified(honest_trace_25):
    doc = json.loads(honest_trace_25.to_json())
    cert = bytearray.fromhex(doc["credentials"][4]["cert"])
    cert[0] ^= 0x01
    doc["credentials"][4]["cert"] = cert.hex()
    with pytest.raises(TraceError) as err:
        SimTrace.from_json(json.dumps(doc))
    assert err.value.location == "credentials[4]"


def test_trace_rejects_a_repeated_credential(honest_trace_25):
    doc = json.loads(honest_trace_25.to_json())
    doc["credentials"][5] = dict(doc["credentials"][2])
    with pytest.raises(TraceError) as err:
        SimTrace.from_dict(doc)
    assert err.value.location == "credentials[5]"
    assert "repeated" in str(err.value)


@pytest.mark.parametrize("robot_id", ["1", 0, 26, True])
def test_trace_rejects_a_credential_outside_the_swarm(honest_trace_25, robot_id):
    doc = json.loads(honest_trace_25.to_json())
    doc["credentials"][0]["robot_id"] = robot_id
    with pytest.raises(TraceError) as err:
        SimTrace.from_dict(doc)
    assert err.value.location == "credentials[0]"


def _set_head(doc, key, value):
    doc["heads"][key] = value


def _rename_head(doc, key, renamed):
    doc["heads"][renamed] = doc["heads"].pop(key)


def _set_exchange(doc, key, value):
    doc["exchanges"][key][0] = value


def _set_exchanges(doc, key, value):
    doc["exchanges"][key] = value


def _set_graph(doc, index, value):
    doc["graphs"][index] = value


def _swap_graphs(doc, *_):
    doc["graphs"][0], doc["graphs"][1] = doc["graphs"][1], doc["graphs"][0]


def _add_graph(doc, *_):
    doc["graphs"].append({"interval": 4, "n": 25, "u": [], "v": []})


def _swap_first_edges(doc, *_):
    graph = doc["graphs"][0]
    for column in ("u", "v"):
        graph[column][0], graph[column][1] = graph[column][1], graph[column][0]


def _as_version_2(doc, *_):
    """The document in the version-2 layout: graphs as edge lists and
    exchanges as one object per record."""
    for graph in doc["graphs"]:
        graph["edges"] = [list(edge) for edge in zip(graph.pop("u"), graph.pop("v"))]
    log = doc["exchanges"]
    doc["exchanges"] = [
        {
            "interval": t, "a": a, "b": b, "a_gave": True, "b_gave": True,
            "a_recorded": True, "b_recorded": True, "fabricated": False, "notes": [],
        }
        for t, a, b in zip(log["interval"], log["a"], log["b"])
    ]
    doc["version"] = 2


_BAD_HEADS_AND_EXCHANGES = [
    ("head-not-a-string", _set_head, ("1", 5), "heads.1"),
    ("head-a-list", _set_head, ("2", ["00" * 32]), "heads.2"),
    ("head-robot-0", _set_head, ("0", None), "heads.0"),
    ("head-robot-26", _set_head, ("26", None), "heads.26"),
    ("head-robot-repeated", _set_head, ("01", None), "heads.01"),
    ("head-31-bytes", _set_head, ("1", "00" * 31), "heads.1"),
    ("head-33-bytes", _set_head, ("1", "00" * 33), "heads.1"),
    # int() reads each of these keys as a robot id, but the simulator writes only str(robot)
    ("head-key-underscore", _rename_head, ("10", "1_0"), "heads.1_0"),
    ("head-key-space", _rename_head, ("7", " 7"), "heads. 7"),
    ("head-key-zero-padded", _rename_head, ("10", "0010"), "heads.0010"),
    ("head-key-plus", _rename_head, ("3", "+3"), "heads.+3"),
    ("head-key-arabic-indic-digit", _rename_head, ("3", "\u0663"), "heads.\u0663"),
    # the exchange log, one column per field
    ("exchange-interval-string", _set_exchange, ("interval", "1"), "exchanges.interval[0]"),
    ("exchange-interval-bool", _set_exchange, ("interval", True), "exchanges.interval[0]"),
    ("exchange-interval-negative", _set_exchange, ("interval", -5), "exchanges.interval[0]"),
    ("exchange-interval-past-run", _set_exchange, ("interval", 4), "exchanges.interval[0]"),
    ("exchange-a-string", _set_exchange, ("a", "x"), "exchanges.a[0]"),
    ("exchange-b-bool", _set_exchange, ("b", True), "exchanges.b[0]"),
    ("exchange-b-outside-swarm", _set_exchange, ("b", 26), "exchanges.b[0]"),
    ("exchange-a-not-below-b", _set_exchange, ("a", 25), "exchanges.a[0]"),
    ("exchange-flag-int", _set_exchange, ("flags", 1.0), "exchanges.flags[0]"),
    ("exchange-flag-string", _set_exchange, ("flags", "yes"), "exchanges.flags[0]"),
    ("exchange-fabricated-null", _set_exchange, ("flags", None), "exchanges.flags[0]"),
    ("exchange-notes-string", _set_exchanges, ("notes", "abc"), "exchanges.notes"),
    ("exchange-notes-int", _set_exchanges, ("notes", [1]), "exchanges.notes[0]"),
    ("exchange-missing-flag", lambda doc, *_: doc["exchanges"].pop("flags"), (None, None), "exchanges.flags"),
    ("exchange-not-an-object", lambda doc, *_: doc.__setitem__("exchanges", [1, 2]), (None, None), "exchanges"),
    ("exchange-columns-unequal", lambda doc, *_: doc["exchanges"]["b"].pop(), (None, None), "exchanges.b"),
    ("exchange-flags-32", _set_exchange, ("flags", 32), "exchanges.flags[0]"),
    ("exchange-flags-negative", _set_exchange, ("flags", -1), "exchanges.flags[0]"),
    ("exchange-flags-bool", _set_exchange, ("flags", True), "exchanges.flags[0]"),
    ("exchange-note-index-past-log", _set_exchanges, ("notes", [[0, "a"], [10**6, "b"]]), "exchanges.notes[1]"),
    ("exchange-note-index-negative", _set_exchanges, ("notes", [[-1, "withheld:1->2"]]), "exchanges.notes[0]"),
    ("exchange-note-index-decreasing", _set_exchanges, ("notes", [[5, "a"], [3, "b"]]), "exchanges.notes[1]"),
    ("exchange-note-not-a-string", _set_exchanges, ("notes", [[0, 7]]), "exchanges.notes[0]"),
    # the graphs, one edge column per endpoint
    ("graph-interval-99-n-4", _set_graph, (0, {"interval": 99, "n": 4, "u": [], "v": []}), "graphs[0]"),
    ("graph-n-1000", _set_graph, (0, {"interval": 1, "n": 1000, "u": [1], "v": [999]}), "graphs[0]"),
    ("graph-n-bool", _set_graph, (0, {"interval": 1, "n": True, "u": [], "v": []}), "graphs[0]"),
    ("graph-interval-bool", _set_graph, (0, {"interval": True, "n": 25, "u": [], "v": []}), "graphs[0]"),
    ("graph-edge-floats", _set_graph, (1, {"interval": 2, "n": 25, "u": [1.0], "v": [2.5]}), "graphs[1].u[0]"),
    ("graph-edge-bool", _set_graph, (1, {"interval": 2, "n": 25, "u": [True], "v": [2]}), "graphs[1].u[0]"),
    ("graph-edge-repeated", _set_graph, (2, {"interval": 3, "n": 25, "u": [1, 1], "v": [2, 2]}), "graphs[2].u[1]"),
    ("graph-edge-triple", _set_graph, (2, {"interval": 3, "n": 25, "u": [1], "v": [[2, 3]]}), "graphs[2].v[0]"),
    ("graph-not-an-object", _set_graph, (2, [1, 2]), "graphs[2]"),
    ("graph-out-of-order", _swap_graphs, (None, None), "graphs[0]"),
    ("graph-past-run", _add_graph, (None, None), "graphs[3]"),
    ("graph-columns-unequal", lambda doc, *_: doc["graphs"][0]["v"].pop(), (None, None), "graphs[0].v"),
    ("graph-edges-descending", _swap_first_edges, (None, None), "graphs[0].u[1]"),
    ("graph-edge-reversed", _set_graph, (0, {"interval": 1, "n": 25, "u": [2], "v": [1]}), "graphs[0].v[0]"),
    ("graph-edge-columns-missing", _set_graph, (0, {"interval": 1, "n": 25, "edges": [[1, 2]]}), "graphs[0].u"),
    ("trace-version-2", _as_version_2, (None, None), "version"),
]


@pytest.mark.parametrize(
    "mutate,args,location",
    [case[1:] for case in _BAD_HEADS_AND_EXCHANGES],
    ids=[case[0] for case in _BAD_HEADS_AND_EXCHANGES],
)
def test_trace_refuses_bad_heads_and_exchange_records(mutate, args, location, honest_trace_25, tmp_path, capsys):
    from swarmchain.cli import main

    doc = json.loads(honest_trace_25.to_json())
    assert doc["exchanges"]["a"][0] == 1 and doc["exchanges"]["b"][0] < 25 and doc["config"]["intervals"] == 3
    assert len(doc["graphs"][0]["u"]) >= 2
    mutate(doc, *args)
    with pytest.raises(TraceError) as err:
        SimTrace.from_dict(doc)
    assert err.value.location == location
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(doc))
    assert main(["analyze", "--trace", str(trace)]) == 2
    assert location in capsys.readouterr().err


def test_loaded_entries_share_the_issued_credentials(honest_trace_25):
    loaded = SimTrace.from_json(honest_trace_25.to_json())
    entries = [entry for link in loaded.store.links() for entry in link.events.entries]
    assert entries
    for entry in entries:
        assert entry.peer_credential is loaded.credentials[entry.peer_id]


def test_a_credential_one_byte_off_loads_as_its_own_and_is_refused():
    """Robot 1 records robot 2's genesis offer carrying robot 2's credential
    with the certificate's last byte flipped."""
    central, (one, two) = provision_swarm(2, seed=41)
    issued = two.credential
    off = replace(issued, cert=issued.cert[:-1] + bytes([issued.cert[-1] ^ 1]))
    store = LinkStore()
    o1 = extend_history(one, None, EventList.empty(1), store)
    w1 = extend_history(two, None, EventList.empty(1), store)
    forged_offer = HistoryOffer(credential=off, link=None, genesis_signature=sign(two, GENESIS))
    o2 = extend_history(one, o1, build_event_list(2, [forged_offer]), store)
    w2 = extend_history(two, w1, EventList.empty(2), store)
    trace = SimTrace(
        config=SimConfig(n=2, p=0.5, intervals=2, delta=2, seed=0),
        central_verify_key=central,
        credentials={1: one.credential, 2: issued},
        graphs=(),
        heads={1: link_digest(o2), 2: link_digest(w2)},
        store=store,
        exchanges=(),
    )
    loaded = SimTrace.from_json(trace.to_json())
    (entry,) = loaded.head_link(1).events.entries
    assert entry.peer_credential == off and entry.peer_credential is not loaded.credentials[2]
    assert loaded.to_json() == trace.to_json()
    assert LocalView.central(loaded).claims == frozenset()
    assert LocalView.from_trace(loaded, 1).evidence == {1: 2}  # the entry does not vouch for robot 2
    assert audit_trace(loaded).verification_failures == ((1, 2, "uncertified-credential"),)


def test_loaded_exchange_records_round_trip():
    """Every shipped config, the adversarial ones with notes and fabricated
    records included, loads to the simulated exchange log and graphs and
    writes back the bytes it was read from."""
    configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
    assert len(configs) == 7
    flags_seen, notes_seen = set(), set()
    for path in configs:
        trace = run_simulation(SimConfig.from_dict(json.loads(path.read_text())))
        text = trace.to_json()
        loaded = SimTrace.from_json(text)
        assert loaded.to_json() == text, path.stem
        assert loaded.exchanges == trace.exchanges, path.stem
        assert loaded.graphs == trace.graphs, path.stem
        assert all(isinstance(x, ExchangeRecord) for x in loaded.exchanges)
        flags_seen |= {x[3:8] for x in loaded.exchanges}
        notes_seen |= {note.split(":")[0] for x in loaded.exchanges for note in x.notes}
    assert (True, True, True, True, True) in flags_seen  # a fabricated, fully recorded meeting
    assert {"unrecorded", "forged-offer-rejected"} <= notes_seen


def _segments(link):
    """The fields of ``encode_link(link)`` in layout order, as (name, bytes);
    a length-prefixed field carries its length mod 2**16, as a u16 must."""

    def u32(value):
        return struct.pack(">I", value)

    def blob(value):
        return struct.pack(">H", len(value) & 0xFFFF) + value

    segments = [
        ("magic", b"L1"),
        ("owner", u32(link.owner_id)),
        ("payload magic", b"E1"),
        ("interval", u32(link.interval)),
        ("prev", link.prev_digest),
        ("count", u32(len(link.events.entries))),
    ]
    for j, e in enumerate(link.events.entries):
        cred = e.peer_credential
        segments += [
            (f"entries.{j}.peer", u32(e.peer_id)),
            (f"entries.{j}.digest", e.peer_link_digest),
            (f"entries.{j}.signature", blob(e.peer_signature)),
            (f"entries.{j}.credential.robot_id", u32(cred.robot_id)),
            (f"entries.{j}.credential.verify_key", blob(cred.verify_key)),
            (f"entries.{j}.credential.cert", blob(cred.cert)),
        ]
    segments.append(("signature", blob(link.signature)))
    assert b"".join(value for _, value in segments) == encode_link(link)
    return segments


def _link_with_entries(doc):
    """Position and link of the first stored link at interval 1 with two or more entries."""
    for i, text in enumerate(doc["links"]):
        link = decode_link(bytes.fromhex(text))
        if link.interval == 1 and len(link.events.entries) >= 2:
            return i, link
    raise AssertionError("no interval-1 link with two entries; pick another trace")


def _with_field(name, raw):
    """Replace one field of the link with raw bytes, its length prefix included
    for a length-prefixed field."""

    def mutate(segments):
        return [(n, raw if n == name else value) for n, value in segments]

    return mutate


def _blob_of(size):
    return struct.pack(">H", size & 0xFFFF) + bytes(size)


def _first_entries_as(*order):
    """Replace the first len(order) entries of the link by its entries ``order``."""

    def mutate(segments):
        entries = [segments[6 + 6 * j : 12 + 6 * j] for j in range((len(segments) - 7) // 6)]
        chosen = [segment for j in order for segment in entries[j]]
        return segments[:6] + chosen + segments[6 + 6 * len(order) :]

    return mutate


def _set_text(text):
    return lambda doc, i: doc["links"].__setitem__(i, text)


def _edit_text(edit):
    return lambda doc, i: doc["links"].__setitem__(i, edit(doc["links"][i]))


def _edit_bytes(mutate):
    def edit(doc, i):
        segments = _segments(decode_link(bytes.fromhex(doc["links"][i])))
        doc["links"][i] = b"".join(value for _, value in mutate(segments)).hex()

    return edit


_TOO_WIDE = (2**32).to_bytes(5, "big")  # 2**32 takes five bytes, a u32 field four
_BAD_LINKS = [
    # the text of a stored link
    ("a number", _set_text(5)),
    ("a version-1 link object", _set_text({"owner": 1, "interval": 1, "entries": []})),
    ("non-hex text", _set_text("zz-not-hex")),
    ("odd-length hex", _edit_text(lambda text: text[:-1])),
    # the bytes of a stored link
    ("truncated by one byte", _edit_text(lambda text: text[:-2])),
    ("one trailing byte", _edit_text(lambda text: text + "00")),
    ("bad link magic", _edit_text(lambda text: "4c32" + text[4:])),
    ("bad payload magic", _edit_bytes(_with_field("payload magic", b"E2"))),
    ("entries out of peer order", _edit_bytes(_first_entries_as(1, 0))),
    ("duplicate peer", _edit_bytes(_first_entries_as(0, 0))),
    ("interval 0", _edit_bytes(_with_field("interval", bytes(4)))),
    ("interval 1 with a non-genesis prev", _edit_bytes(_with_field("prev", b"\x01" * 32))),
    # one field that does not fit its place in the layout
    ("owner=4294967296", _edit_bytes(_with_field("owner", _TOO_WIDE))),
    ("interval=4294967296", _edit_bytes(_with_field("interval", _TOO_WIDE))),
    ("entries.0.peer=4294967296", _edit_bytes(_with_field("entries.0.peer", _TOO_WIDE))),
    (
        "entries.0.credential.robot_id=4294967296",
        _edit_bytes(_with_field("entries.0.credential.robot_id", _TOO_WIDE)),
    ),
    ("signature=65536 bytes", _edit_bytes(_with_field("signature", _blob_of(65536)))),
    ("entries.0.signature=65536 bytes", _edit_bytes(_with_field("entries.0.signature", _blob_of(65536)))),
    (
        "entries.0.credential.verify_key=65536 bytes",
        _edit_bytes(_with_field("entries.0.credential.verify_key", _blob_of(65536))),
    ),
    (
        "entries.0.credential.cert=65536 bytes",
        _edit_bytes(_with_field("entries.0.credential.cert", _blob_of(65536))),
    ),
    ("prev=31 bytes", _edit_bytes(_with_field("prev", bytes(31)))),
    ("prev=33 bytes", _edit_bytes(_with_field("prev", bytes(33)))),
    ("entries.0.digest=31 bytes", _edit_bytes(_with_field("entries.0.digest", bytes(31)))),
    ("entries.0.digest=33 bytes", _edit_bytes(_with_field("entries.0.digest", bytes(33)))),
]


@pytest.mark.parametrize("mutate", [case[1] for case in _BAD_LINKS], ids=[case[0] for case in _BAD_LINKS])
def test_link_fields_must_fit_the_link_encoding(mutate, honest_trace_25, tmp_path, capsys):
    from swarmchain.cli import main

    doc = json.loads(honest_trace_25.to_json())
    i, _ = _link_with_entries(doc)
    mutate(doc, i)
    with pytest.raises(TraceError) as err:
        SimTrace.from_dict(doc)
    assert err.value.location == f"links[{i}]"
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(doc))
    assert main(["analyze", "--trace", str(trace)]) == 2
    assert f"links[{i}]" in capsys.readouterr().err


def test_link_byte_fields_of_65535_bytes_load(honest_trace_25):
    doc = json.loads(honest_trace_25.to_json())
    i, link = _link_with_entries(doc)
    segments = _segments(link)
    for name in ("signature", "entries.0.signature", "entries.0.credential.verify_key", "entries.0.credential.cert"):
        segments = _with_field(name, _blob_of(65535))(segments)
    doc["links"][i] = b"".join(value for _, value in segments).hex()
    loaded = SimTrace.from_dict(doc).store
    assert len(loaded) == len(doc["links"])
    assert loaded.get(digest(bytes.fromhex(doc["links"][i]))).events.entries[0].peer_credential.cert == bytes(65535)
