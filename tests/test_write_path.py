"""The simulator's write path against the code it replaced, and the
crypto it must keep.

``_ReferenceSimulation`` below keeps the earlier ``Simulation.exchange``
and interval close as the reference: each direction of an exchange asks
for the giver's checked offer and walks the behaviours, and each event
list is built by sorting every queued offer by giver.  The interval
table (one row per robot) and the event list built without a re-sort
must give equal exchange records, notes included, equal event lists
for every stored link and byte-identical trace JSON, on every shipped
config, on the seeded sweep of ``test_config_sweep`` (every behaviour)
and with offers planted out of turn (``test_entry_rule``).

A run's signatures are pinned too: n certificates, one per stored link
and one genesis signature per robot that gave an offer before its first
link.  Nothing on the write path may add a signature.
"""
import json
from pathlib import Path

import pytest
from test_config_sweep import _random_config
from test_entry_rule import DISAPPEARED, _PlantingSimulation

from swarmchain import crypto
from swarmchain.chain import EventEntry, check_offer, extend_history, offer_history
from swarmchain.sim import AdversaryProfile, ExchangeRecord, SimConfig, Simulation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG_NAMES = sorted(path.stem for path in CONFIGS.glob("*.json"))


def _config(name: str) -> SimConfig:
    return SimConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))


# -- reference: the exchange and interval close before the interval table ---------


def _reference_build_event_list(offers):
    entries: dict[int, EventEntry] = {}
    for offer in sorted(offers, key=lambda offer: offer.entry.peer_id):  # stable: each giver's first offer first
        entries.setdefault(offer.entry.peer_id, offer.entry)
    return tuple(entries.values())


class _ReferenceSimulation(Simulation):
    """The exchange and the interval close as they were, verbatim but for
    the offer memo, which is keyed by interval here because ``run`` no
    longer empties it, and the duplicate-pair check, whose per-interval
    set ``run`` no longer keeps."""

    def _checked_offer(self, giver, t, forged=False):
        offers = self.__dict__.setdefault("_reference_offers", {})
        key = (giver, t, forged)
        checked = offers.get(key)
        if checked is None:
            if forged:
                offer = self._forged_offer(giver, t)
            else:
                offer = offer_history(self.identities[giver], self.heads[giver])
            reason = check_offer(offer, t, self.store, self.config.resolved_window, self.credentials)
            checked = offers[key] = (offer, reason)
        return checked

    def exchange(self, i, j, t, fabricated=False):
        if i == j:
            raise ValueError("a robot cannot exchange history with itself")
        a, b = (i, j) if i < j else (j, i)

        behavior, queues = self.behavior, self._queues
        notes = ()
        outcome = ()  # (gave, recorded) for a -> b, then for b -> a
        for giver, receiver in ((a, b), (b, a)):
            if behavior[giver] == "refuse_give":
                notes += (f"withheld:{giver}->{receiver}",)
                outcome += (False, False)
                continue
            offer, reason = self._checked_offer(giver, t)
            if behavior[receiver] == "refuse_record":
                notes += (f"unrecorded:{giver}->{receiver}",)
            elif reason is not None:
                notes += (f"invalid-offer:{giver}->{receiver}",)
            else:
                queues[receiver].append(offer)
                outcome += (True, True)
                continue
            outcome += (True, False)
        for forger, victim in ((a, b), (b, a)):
            if behavior[forger] == "forge_claim":
                forged, reason = self._checked_offer(forger, t, forged=True)
                if reason is None:
                    queues[victim].append(forged)
                else:
                    notes += (f"forged-offer-rejected:{forger}->{victim}",)

        a_gave, b_recorded, b_gave, a_recorded = outcome
        record = ExchangeRecord(t, a, b, a_gave, b_gave, a_recorded, b_recorded, fabricated, notes)
        self.exchanges.append(record)
        return record

    def _close_interval(self, r, t):
        offers = self._queues[r]
        if self.behavior[r] == "forge_claim":
            offers.append(self._checked_offer(r, t, forged=True)[0])
        entries = _reference_build_event_list(offers)
        self.heads[r] = extend_history(self.identities[r], self.heads[r], t, entries, self.store)


class _ReferencePlanting(_PlantingSimulation, _ReferenceSimulation):
    """``test_entry_rule``'s planted genesis entries, closed by the reference."""


def _assert_same_run(simulation: Simulation, reference: Simulation) -> None:
    trace, expected = simulation.run(), reference.run()
    assert trace.exchanges == expected.exchanges
    assert sorted(trace.store.digests()) == sorted(expected.store.digests())
    for d in expected.store.digests():
        link, reference = trace.store.get(d), expected.store.get(d)
        assert (link.interval, link.entries) == (reference.interval, reference.entries)
    assert trace.to_json() == expected.to_json()


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_the_interval_table_runs_every_config_as_the_reference(name):
    _assert_same_run(Simulation(_config(name)), _ReferenceSimulation(_config(name)))


def test_the_interval_table_runs_the_config_sweep_as_the_reference():
    for seed in range(300):
        config = _random_config(seed)
        _assert_same_run(Simulation(config), _ReferenceSimulation(config))


def test_offers_planted_out_of_turn_close_as_in_the_reference():
    config = SimConfig(
        n=12, p=0.3, intervals=6, delta=3, alpha=0.1, seed=3,
        adversaries=(AdversaryProfile("disappear", frozenset({DISAPPEARED}), from_t=3, to_t=6),),
    )
    _assert_same_run(_PlantingSimulation(config), _ReferencePlanting(config))


# -- the crypto floor --------------------------------------------------------------


@pytest.fixture
def signed(monkeypatch):
    """The message of every Ed25519 signature made, from keys that count."""
    messages = []
    real = crypto.Ed25519PrivateKey

    class CountingKey:
        def __init__(self, key):
            self._key = key

        @staticmethod
        def from_private_bytes(data):
            return CountingKey(real.from_private_bytes(data))

        def sign(self, message):
            messages.append(message)
            return self._key.sign(message)

        def public_key(self):
            return self._key.public_key()

        def private_bytes_raw(self):
            return self._key.private_bytes_raw()

    monkeypatch.setattr(crypto, "Ed25519PrivateKey", CountingKey)
    return messages


@pytest.mark.parametrize("name", ["honest_n48", "framing_n48"])
def test_a_run_signs_certificates_links_and_first_offers_only(signed, name):
    config = _config(name)
    trace = Simulation(config).run()
    first_link = {}
    for link in trace.store.links():
        first_link[link.owner_id] = min(link.interval, first_link.get(link.owner_id, link.interval))
    gave_genesis = set()
    for x in trace.exchanges:
        for robot, gave in ((x.a, x.a_gave), (x.b, x.b_gave)):
            if gave and x.interval <= first_link.get(robot, x.interval):
                gave_genesis.add(robot)
    assert gave_genesis
    assert len(signed) == config.n + len(trace.store) + len(gave_genesis)
