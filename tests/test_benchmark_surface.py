"""The names the per-layer benchmark (``perfbench/layers.py``) reads.

Its traced runs wrap ``LocalView.links``, ``.claims`` and ``.evidence``
as ``functools.cached_property`` functions, measure a view's size with
``len(view.links)``, and read the depth of every ``verify_chain`` call
as its fourth positional argument.  A rename or a keyword call would
not fail the benchmark; it would silently zero a per-layer figure.
"""
from functools import cached_property

from swarmchain import chain
from swarmchain.chain import EventList, LinkStore, check_offer, extend_history, offer_history
from swarmchain.crypto import provision_swarm
from swarmchain.detect import LocalView
from swarmchain.sim import SimConfig, run_simulation


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
