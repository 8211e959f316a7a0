import gc
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmchain import crypto
from swarmchain.chain import GENESIS, link_digest, signed_digest
from swarmchain.crypto import (
    DIGEST_SIZE,
    digest,
    provision_swarm,
    sign,
    verify,
    verify_credential,
)
from swarmchain.sim import AdversaryProfile, SimConfig, SimTrace, run_simulation


def test_single_robot_cert_verifies():
    central_vk, identities = provision_swarm(1, seed=7)
    assert len(identities) == 1
    assert verify_credential(identities[0].credential, central_vk)


def test_swarm_of_25_has_distinct_ids():
    _, identities = provision_swarm(25, seed=7)
    assert [i.robot_id for i in identities] == list(range(1, 26))
    assert len({i.credential.verify_key for i in identities}) == 25


def test_provisioning_is_deterministic():
    a_vk, a_ids = provision_swarm(4, seed=11)
    b_vk, b_ids = provision_swarm(4, seed=11)
    assert a_vk == b_vk
    assert [(i.credential, i.signing_key) for i in a_ids] == [
        (i.credential, i.signing_key) for i in b_ids
    ]


def test_different_seeds_give_different_keys():
    a_vk, _ = provision_swarm(2, seed=1)
    b_vk, _ = provision_swarm(2, seed=2)
    assert a_vk != b_vk


def test_zero_robots_rejected():
    with pytest.raises(ValueError):
        provision_swarm(0, seed=1)


def test_sign_verify_roundtrip(swarm5):
    _, identities = swarm5
    message = b"encounter record"
    sig = sign(identities[0], message)
    assert verify(identities[0].credential, message, sig)


def test_flipped_message_rejected(swarm5):
    _, identities = swarm5
    message = bytearray(b"encounter record")
    sig = sign(identities[0], bytes(message))
    message[3] ^= 0x01
    assert not verify(identities[0].credential, bytes(message), sig)


def test_other_robots_credential_rejected(swarm5):
    _, identities = swarm5
    sig = sign(identities[0], b"hello")
    assert not verify(identities[1].credential, b"hello", sig)


def test_empty_message_roundtrip(swarm5):
    _, identities = swarm5
    sig = sign(identities[2], b"")
    assert verify(identities[2].credential, b"", sig)


def test_truncated_signatures_rejected(swarm5):
    _, identities = swarm5
    sig = sign(identities[0], b"payload")
    for cut in range(len(sig)):
        assert not verify(identities[0].credential, b"payload", sig[:cut])


def test_garbage_signatures_rejected_not_raised(swarm5):
    _, identities = swarm5
    rng = random.Random(5)
    for size in (0, 1, 31, 63, 64, 65, 200):
        blob = rng.randbytes(size)
        assert verify(identities[0].credential, b"payload", blob) in (False,)


@settings(max_examples=40)
@given(message=st.binary(min_size=1, max_size=200), data=st.data())
def test_any_single_bit_flip_flips_accept_to_reject(message, data):
    _, identities = provision_swarm(1, seed=3)
    identity = identities[0]
    sig = sign(identity, message)
    which = data.draw(st.sampled_from(["message", "signature"]))
    if which == "message":
        pos = data.draw(st.integers(0, len(message) * 8 - 1))
        mutated = bytearray(message)
        mutated[pos // 8] ^= 1 << (pos % 8)
        assert not verify(identity.credential, bytes(mutated), sig)
    else:
        pos = data.draw(st.integers(0, len(sig) * 8 - 1))
        mutated = bytearray(sig)
        mutated[pos // 8] ^= 1 << (pos % 8)
        assert not verify(identity.credential, message, bytes(mutated))


def test_cert_from_wrong_central_rejected():
    central_a, ids_a = provision_swarm(1, seed=1)
    central_b, _ = provision_swarm(1, seed=2)
    assert verify_credential(ids_a[0].credential, central_a)
    assert not verify_credential(ids_a[0].credential, central_b)


def test_digest_deterministic_and_fixed_length():
    for message in (b"", b"a", b"a" * 1000, bytes(range(256))):
        d1 = digest(message)
        d2 = digest(message)
        assert d1 == d2
        assert len(d1) == DIGEST_SIZE


def test_digest_collision_free_over_random_corpus():
    rng = random.Random(12345)
    seen = {}
    for i in range(100_000):
        message = rng.randbytes(rng.randint(0, 64))
        d = digest(message)
        if d in seen:
            assert seen[d] == message
        else:
            seen[d] = message


def test_a_digest_is_its_bytes():
    b = hashlib.sha256(b"swarmchain").digest()
    assert digest(b"swarmchain") == b and type(digest(b"swarmchain")) is bytes
    assert GENESIS == bytes(32) and type(GENESIS) is bytes


def _run_digests(trace):
    """Every digest a trace holds: each link's previous, entry, signed
    and address digests, and each head."""
    for link in trace.store.links():
        yield link.prev_digest
        yield from (entry.peer_link_digest for entry in link.entries)
        yield link_digest(link)
        yield signed_digest(link)
    yield from (d for d in trace.heads.values() if d is not None)


def test_every_digest_of_a_run_and_of_its_reloaded_trace_is_plain_bytes():
    """A digest is an exact ``bytes``, so the cyclic GC never tracks it."""
    config = SimConfig(
        n=10, p=0.4, intervals=4, delta=2, alpha=0.1, seed=73,
        adversaries=(AdversaryProfile("forge_claim", frozenset({4}), target=7),),
    )
    trace = run_simulation(config)
    for source in (trace, SimTrace.from_json(trace.to_json())):
        digests = list(_run_digests(source))
        assert len(digests) > 3 * len(trace.store)
        assert {type(d) for d in digests} == {bytes}
        assert not any(map(gc.is_tracked, digests))


@pytest.fixture
def key_loads(monkeypatch):
    """The raw bytes of every Ed25519 private-key load."""
    loads = []
    real = crypto.Ed25519PrivateKey

    class CountingKey:
        @staticmethod
        def from_private_bytes(data):
            loads.append(data)
            return real.from_private_bytes(data)

    monkeypatch.setattr(crypto, "Ed25519PrivateKey", CountingKey)
    return loads


def test_a_run_loads_each_key_once(key_loads):
    """Provisioning loads the central key and each robot key; signing,
    forged signatures included, loads none again."""
    config = SimConfig(
        n=10, p=0.4, intervals=4, delta=2, alpha=0.1, seed=73,
        adversaries=(AdversaryProfile("forge_claim", frozenset({4}), target=7),),
    )
    run_simulation(config)
    assert len(key_loads) == len(set(key_loads)) == config.n + 1


def test_a_swarm_larger_than_any_key_cache_loads_each_key_once(key_loads):
    config = SimConfig(n=1100, p=0.0, intervals=2, delta=1, seed=5)
    run_simulation(config)
    assert len(key_loads) == len(set(key_loads)) == config.n + 1


def test_an_identity_refuses_a_key_loaded_from_other_bytes():
    _, (robot1, robot2) = provision_swarm(2, seed=6)
    with pytest.raises(ValueError):
        crypto.SigningIdentity(robot1.credential, robot1.signing_key, key=robot2._key)
