"""Credential provisioning, signing, and hashing primitives.

A trusted central control provisions every robot with a signing keypair
and a certificate binding (robot_id, verify_key) under the central key.
The concrete algorithms (Ed25519 signatures, SHA-256 digests) are an
internal detail of this module: callers treat signatures and digests as
opaque bytes, so the scheme can be swapped without touching the rest of
the code.  A digest is a plain ``bytes`` of length ``DIGEST_SIZE``; its
length is checked where a digest is encoded (``chain``) and where one is
read from outside input (a trace's heads).

Key material is derived deterministically from the provisioning seed, so
a swarm provisioned twice with the same (n, seed) is byte-identical.
Private keys live only inside :class:`SigningIdentity` and are never
serialized.  Each key is loaded once: a :class:`SigningIdentity` loads
its key when it is made and keeps it, so provisioning a swarm pays n + 1
key loads whatever n is, and :func:`sign` never loads a key again.

Verification is a pure function of (verify key, message, signature), so
verdicts are kept in one process-wide memo.  Signing seeds it: Ed25519
signing is deterministic (RFC 8032) and a signature made with a private
key always verifies under that key's own public key, so :func:`sign`
records ``(public, message, signature) -> True`` and
:func:`provision_swarm` records each certificate under the central key.
``public`` is derived from the private key itself, never read from the
identity's credential, so an identity whose credential does not match
its key seeds nothing false: its signatures are checked with real crypto
under that credential, and fail.  Every other triple is checked with real
crypto on first sight and its verdict, true or false, is kept.  A
simulation therefore never verifies its own signatures with real crypto;
only foreign ones (a loaded trace in a fresh process, a forged
signature) reach Ed25519.  The memo holds at most ``_VERIFY_MEMO_BOUND``
(1 << 15) entries and is emptied as a whole when full; one run seeds
links + 2n triples, 288 at n=48 over 4 intervals.
"""
from __future__ import annotations

import hashlib
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

DIGEST_SIZE = 32

_KEY_DOMAIN = b"swarmchain:key:v1:"
_CRED_DOMAIN = b"swarmchain:cred:v1:"


def digest(message: bytes) -> bytes:
    """Hash arbitrary bytes to a ``DIGEST_SIZE``-byte digest."""
    return hashlib.sha256(message).digest()


@dataclass(frozen=True)
class Credential:
    """A robot's public identity: id, verification key, central certificate."""

    robot_id: int
    verify_key: bytes
    cert: bytes


@dataclass(frozen=True)
class SigningIdentity:
    """A robot's credential plus its private signing key.

    The signing key is held only by the robot (and central control); it
    is excluded from repr output and must never enter traces or reports.
    The key is loaded once and kept with its public bytes: ``key`` passes
    one already loaded from ``signing_key``, otherwise it is loaded here.
    """

    credential: Credential
    signing_key: bytes = field(repr=False)
    key: InitVar[Ed25519PrivateKey | None] = None
    _key: Ed25519PrivateKey = field(init=False, repr=False, compare=False)
    _public: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self, key: Ed25519PrivateKey | None) -> None:
        if key is None:
            key = Ed25519PrivateKey.from_private_bytes(self.signing_key)
        elif key.private_bytes_raw() != self.signing_key:
            raise ValueError("loaded key does not match signing_key")
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_public", key.public_key().public_bytes_raw())

    @property
    def robot_id(self) -> int:
        return self.credential.robot_id


@lru_cache(maxsize=4096)
def _load_public(verify_key: bytes) -> Ed25519PublicKey | None:
    try:
        return Ed25519PublicKey.from_public_bytes(verify_key)
    except (ValueError, TypeError):
        return None


# The verify memo: (verify key, message, signature) -> verdict.  See the
# module docstring for why seeding it at sign time is sound.
_VERIFY_MEMO_BOUND = 1 << 15
_verified: dict[tuple[bytes, bytes, bytes], bool] = {}


def _remember(verify_key: bytes, message: bytes, signature: bytes, verdict: bool) -> None:
    # Emptied as a whole when full: evicting the oldest key one at a time
    # makes CPython rescan the deleted front slots on every insert.
    if len(_verified) >= _VERIFY_MEMO_BOUND:
        _verified.clear()
    _verified[verify_key, message, signature] = verdict


def credential_message(robot_id: int, verify_key: bytes) -> bytes:
    """Canonical bytes certified by central control for one robot."""
    return _CRED_DOMAIN + robot_id.to_bytes(4, "big") + verify_key


def _derive_key_bytes(material: str) -> bytes:
    return hashlib.sha256(_KEY_DOMAIN + material.encode()).digest()


def provision_swarm(n: int, seed: int) -> tuple[bytes, list[SigningIdentity]]:
    """Provision a swarm of ``n`` robots with ids 1..n.

    Returns the central verification key and one identity per robot,
    each carrying a certificate valid under the central key.  Pure in
    (n, seed); each certificate is recorded as valid in the verify memo.
    """
    if n < 1:
        raise ValueError(f"swarm size must be >= 1, got {n}")
    central = Ed25519PrivateKey.from_private_bytes(_derive_key_bytes(f"central:{seed}"))
    central_vk = central.public_key().public_bytes_raw()
    identities = []
    for robot_id in range(1, n + 1):
        signing_key = _derive_key_bytes(f"robot:{seed}:{robot_id}")
        key = Ed25519PrivateKey.from_private_bytes(signing_key)
        vk = key.public_key().public_bytes_raw()
        message = credential_message(robot_id, vk)
        cert = central.sign(message)
        _remember(central_vk, message, cert, True)
        cred = Credential(robot_id=robot_id, verify_key=vk, cert=cert)
        identities.append(SigningIdentity(credential=cred, signing_key=signing_key, key=key))
    return central_vk, identities


def sign(identity: SigningIdentity, message: bytes) -> bytes:
    """Sign a message; the result verifies under ``identity.credential``
    when that credential carries the identity's own key.

    The signature is recorded as valid in the verify memo under the
    public key derived from the signing key, never under the credential's
    key, so the first :func:`verify` of it is a lookup.
    """
    message = bytes(message)
    signature = identity._key.sign(message)
    _remember(identity._public, message, signature, True)
    return signature


def _verify_cached(verify_key: bytes, message: bytes, signature: bytes) -> bool:
    verdict = _verified.get((verify_key, message, signature))
    if verdict is not None:
        return verdict
    verdict = False
    public = _load_public(verify_key)
    if public is not None:
        try:
            public.verify(signature, message)
            verdict = True
        except (InvalidSignature, ValueError, TypeError):
            pass
    _remember(verify_key, message, signature, verdict)
    return verdict


def verify(credential: Credential, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` was produced over ``message`` by the matching key.

    Malformed signatures or keys are rejected, not raised.  Verdicts are
    memoized process-wide; a signature this process made with
    :func:`sign` is found in the memo, and any other one is checked with
    real crypto on first sight.  The message is made ``bytes`` as
    :func:`sign` makes it; for an exact ``bytes``, such as every digest,
    ``bytes(message)`` is the same object, so the memo key costs no copy.
    """
    return _verify_cached(credential.verify_key, bytes(message), bytes(signature))


def verify_credential(credential: Credential, central_verify_key: bytes) -> bool:
    """Check the central-control certificate on a credential."""
    return _verify_cached(
        central_verify_key,
        credential_message(credential.robot_id, credential.verify_key),
        credential.cert,
    )
