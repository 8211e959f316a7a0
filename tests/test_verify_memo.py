"""The verify memo that signing seeds (see the ``crypto`` module docstring).

Every verdict in the memo must equal what real Ed25519 says; a run's own
signatures must never reach real verification; a signature made under a
key its credential does not carry must still be checked, and refused.
"""
import json
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from swarmchain import crypto, suites
from swarmchain.chain import GENESIS, check_link, sign_link
from swarmchain.crypto import SigningIdentity, provision_swarm, sign, verify
from swarmchain.detect import LocalView, audit_trace
from swarmchain.sim import SimConfig, run_simulation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# One config per behaviour: honest, refuse_record, disappear, collude, forge_claim.
BEHAVIOUR_CONFIGS = ["honest_n25", "framing_n25", "disappearance_n25", "collusion_n25", "forge_n10"]


def _config(name):
    return SimConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))


def _real_verdict(verify_key, message, signature):
    try:
        Ed25519PublicKey.from_public_bytes(verify_key).verify(signature, message)
    except (InvalidSignature, ValueError, TypeError):
        return False
    return True


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty memo for this test; the process-wide one is put back after."""
    memo = {}
    monkeypatch.setattr(crypto, "_verified", memo)
    return memo


@pytest.fixture
def real_verifies(monkeypatch, fresh_memo):
    """The verify keys of every memo miss, in order (each miss loads its key)."""
    seen = []
    load = crypto._load_public

    def counting(verify_key):
        seen.append(verify_key)
        return load(verify_key)

    monkeypatch.setattr(crypto, "_load_public", counting)
    return seen


def _run_and_read(config):
    """Simulate, then read the trace the way the detectors and the audit do."""
    trace = run_simulation(config)
    suites.framed(trace)
    for observer in range(1, config.n + 1):
        LocalView.from_trace(trace, observer).claims
    audit_trace(trace)
    return trace


@pytest.mark.parametrize("name", BEHAVIOUR_CONFIGS)
def test_every_memo_verdict_matches_real_crypto(name, fresh_memo):
    trace = _run_and_read(_config(name))
    assert len(fresh_memo) >= len(trace.store) + trace.config.n
    for (verify_key, message, signature), verdict in fresh_memo.items():
        assert verdict == _real_verdict(verify_key, message, signature)


@pytest.mark.parametrize("name", ["honest_n25", "framing_n25"])
def test_a_runs_own_signatures_never_reach_real_verify(name, real_verifies):
    _run_and_read(_config(name))
    assert real_verifies == []


def test_forged_signatures_still_reach_real_verify_and_are_refused(real_verifies, fresh_memo):
    config = _config("forge_n10")
    (profile,) = config.adversaries
    assert profile.behavior == "forge_claim"
    trace = _run_and_read(config)
    target_key = trace.credentials[profile.target].verify_key
    refused = [triple for triple, verdict in fresh_memo.items() if not verdict]
    assert real_verifies == [target_key] * config.intervals
    assert len(refused) == config.intervals
    assert all(verify_key == target_key for verify_key, _, _ in refused)
    notes = [note for record in trace.exchanges for note in record.notes]
    assert any(note.startswith("forged-offer-rejected") for note in notes)


def test_a_mismatched_identity_seeds_no_false_verdict(real_verifies):
    _, identities = provision_swarm(3, seed=5)
    robot1, robot2 = identities[0], identities[1]
    impostor = SigningIdentity(credential=robot2.credential, signing_key=robot1.signing_key)
    signature = sign(impostor, b"claim")
    assert not verify(robot2.credential, b"claim", signature)
    assert verify(robot1.credential, b"claim", signature)
    link = sign_link(impostor, 2, 1, (), GENESIS)
    assert check_link(link, robot2.credential) == "bad-signature"
    assert real_verifies == [robot2.credential.verify_key] * 2


def test_memo_never_exceeds_its_bound(monkeypatch, fresh_memo):
    monkeypatch.setattr(crypto, "_VERIFY_MEMO_BOUND", 4)
    _, identities = provision_swarm(3, seed=6)
    assert len(fresh_memo) <= 4
    signed = []
    for i in range(10):
        identity = identities[i % 3]
        message = f"message {i}".encode()
        signed.append((identity, message, sign(identity, message)))
        assert len(fresh_memo) <= 4
    for identity, message, signature in signed:
        assert verify(identity.credential, message, signature)
        tampered = bytes([signature[0] ^ 1]) + signature[1:]
        assert not verify(identity.credential, message, tampered)
        assert not verify(identity.credential, message + b"!", signature)
        assert len(fresh_memo) <= 4


def test_a_digest_message_and_its_bytes_share_one_memo_entry(real_verifies, fresh_memo):
    _, (robot,) = provision_swarm(1, seed=8)
    message = crypto.digest(b"a payload")
    signature = sign(robot, message)
    fresh_memo.clear()  # the signature now reaches real crypto once
    assert verify(robot.credential, message, signature)
    assert verify(robot.credential, bytes(message), signature)
    assert verify(robot.credential, bytearray(message), signature)
    assert not verify(robot.credential, bytearray(b"another payload"), signature)
    assert len(fresh_memo) == 2 and real_verifies == [robot.credential.verify_key] * 2
    assert fresh_memo[robot.credential.verify_key, bytes(message), signature] is True
