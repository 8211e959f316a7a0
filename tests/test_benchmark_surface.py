"""The names the per-layer benchmark (``perfbench/layers.py``) reads.

Its traced runs wrap ``LocalView.links``, ``.claims`` and ``.evidence``
as ``functools.cached_property`` functions, measure a view's size with
``len(view.links)``, and read the depth of every ``verify_chain`` call
as its fourth positional argument.  They count exchange outcomes by
wrapping ``Simulation.exchange`` and reading the reason before the colon
of each note of the record it returns, and time the trace's JSON round
trip by wrapping ``SimTrace.to_json`` and the classmethod
``SimTrace.from_json``.  A rename or a keyword call would not fail the
benchmark; it would silently zero a per-layer figure.
"""
import json
import re
from functools import cached_property
from pathlib import Path

from swarmchain import chain
from swarmchain.chain import EventList, LinkStore, check_offer, extend_history, offer_history
from swarmchain.crypto import provision_swarm
from swarmchain.detect import LocalView
from swarmchain.sim import AdversaryProfile, SimConfig, Simulation, SimTrace, run_simulation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_the_view_properties_the_benchmark_wraps_are_cached_properties():
    for name in ("links", "claims", "evidence"):
        prop = LocalView.__dict__[name]
        assert isinstance(prop, cached_property), name
        assert callable(prop.func), name
    trace = run_simulation(SimConfig(n=4, p=0.5, intervals=2, delta=2, seed=3))
    view = LocalView.from_trace(trace, 1)
    assert len(view.links) > 0 and isinstance(view.claims, frozenset) and isinstance(view.evidence, dict)


def test_the_offer_rule_passes_verify_chain_its_depth_fourth_and_positionally(monkeypatch):
    _, (giver, receiver) = provision_swarm(2, seed=12)
    store = LinkStore()
    head = extend_history(giver, None, EventList.empty(1), store)
    head = extend_history(giver, head, EventList.empty(2), store)
    issued = {i.robot_id: i.credential for i in (giver, receiver)}
    calls = []
    verify_chain = chain.verify_chain

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return verify_chain(*args, **kwargs)

    monkeypatch.setattr(chain, "verify_chain", recording)
    assert check_offer(offer_history(giver, head), 3, store, 5, issued) is None
    ((args, kwargs),) = calls
    assert kwargs == {} and args[3] == 2  # min(window, the offered link's interval)


def _wrapped(monkeypatch, owner, name, seen):
    """Wrap ``owner.name`` at the class, as the benchmark does, recording
    what each call returns."""
    original = owner.__dict__[name]
    func = original.__func__ if isinstance(original, classmethod) else original

    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        seen.append(result)
        return result

    monkeypatch.setattr(owner, name, classmethod(wrapper) if isinstance(original, classmethod) else wrapper)


def test_every_exchange_record_comes_from_one_exchange_call_and_names_its_pair(monkeypatch):
    seen = []
    _wrapped(monkeypatch, Simulation, "exchange", seen)
    withholding = SimConfig(
        n=12, p=0.5, intervals=3, alpha=0.1, seed=5,
        adversaries=(AdversaryProfile(behavior="refuse_give", robots=frozenset({4})),),
    )
    configs = {
        name: SimConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
        for name in ("forge_n10", "framing_n25", "collusion_n25", "disappearance_n25")
    }
    reasons = set()
    for name, config in {**configs, "refuse_give_n12": withholding}.items():
        seen.clear()
        trace = run_simulation(config)
        assert len(seen) == len(trace.exchanges) and all(map(tuple.__eq__, seen, trace.exchanges)), name
        assert all(call is record for call, record in zip(seen, trace.exchanges)), name
        for record in trace.exchanges:
            for note in record.notes:
                reason, giver, receiver = re.fullmatch(r"([a-z-]+):(\d+)->(\d+)", note).groups()
                assert {int(giver), int(receiver)} == {record.a, record.b}, (name, note)
                reasons.add(reason)
    assert reasons == {"withheld", "unrecorded", "invalid-offer", "forged-offer-rejected"}


def test_the_trace_json_round_trip_runs_inside_to_json_and_from_json(monkeypatch):
    assert callable(SimTrace.__dict__["to_json"])
    assert isinstance(SimTrace.__dict__["from_json"], classmethod)
    trace = run_simulation(SimConfig(n=4, p=0.5, intervals=2, delta=2, seed=3))
    written, read, built, parsed = [], [], [], []
    _wrapped(monkeypatch, SimTrace, "to_json", written)
    _wrapped(monkeypatch, SimTrace, "from_json", read)
    _wrapped(monkeypatch, SimTrace, "to_dict", built)
    _wrapped(monkeypatch, SimTrace, "from_dict", parsed)
    text = trace.to_json(manifest={"tool": "swarmchain"})
    loaded = SimTrace.from_json(text)
    assert written == [text] and len(built) == 1
    assert read == [loaded] and parsed == [loaded]
