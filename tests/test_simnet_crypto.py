"""Tests for the transport cipher."""

import numpy as np
import pytest

from repro.simnet import crypto
from repro.simnet.crypto import Ciphertext, SessionKey, decrypt, derive_key, encrypt
from repro.simnet.errors import TransportError


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_roundtrip(rng):
    key = derive_key("alice", "bob")
    plaintext = b"the quick brown fox" * 10
    ciphertext = encrypt(key, plaintext, rng)
    assert decrypt(key, ciphertext) == plaintext


def test_empty_plaintext_roundtrip(rng):
    key = derive_key("a", "b")
    ciphertext = encrypt(key, b"", rng)
    assert decrypt(key, ciphertext) == b""


def test_ciphertext_differs_from_plaintext(rng):
    key = derive_key("alice", "bob")
    plaintext = b"x" * 256
    ciphertext = encrypt(key, plaintext, rng)
    assert ciphertext.body != plaintext


def test_distinct_nonces_give_distinct_ciphertexts(rng):
    key = derive_key("alice", "bob")
    plaintext = b"repeated message"
    c1 = encrypt(key, plaintext, rng)
    c2 = encrypt(key, plaintext, rng)
    assert c1.nonce != c2.nonce
    assert c1.body != c2.body


def test_key_derivation_is_symmetric():
    assert derive_key("alice", "bob").raw == derive_key("bob", "alice").raw


def test_key_derivation_separates_pairs():
    assert derive_key("alice", "bob").raw != derive_key("alice", "carol").raw


def test_tampered_body_rejected(rng):
    key = derive_key("alice", "bob")
    ciphertext = encrypt(key, b"attack at dawn", rng)
    tampered = Ciphertext(
        nonce=ciphertext.nonce,
        body=bytes([ciphertext.body[0] ^ 1]) + ciphertext.body[1:],
        tag=ciphertext.tag,
    )
    with pytest.raises(TransportError):
        decrypt(key, tampered)


def test_tampered_nonce_rejected(rng):
    key = derive_key("alice", "bob")
    ciphertext = encrypt(key, b"attack at dawn", rng)
    tampered = Ciphertext(
        nonce=bytes(len(ciphertext.nonce)),
        body=ciphertext.body,
        tag=ciphertext.tag,
    )
    with pytest.raises(TransportError):
        decrypt(key, tampered)


def test_wrong_key_rejected(rng):
    ciphertext = encrypt(derive_key("alice", "bob"), b"secret", rng)
    with pytest.raises(TransportError):
        decrypt(derive_key("alice", "carol"), ciphertext)


def test_short_key_rejected():
    with pytest.raises(TransportError):
        SessionKey(b"short")


def test_subkeys_differ():
    key = derive_key("alice", "bob")
    assert key.enc_key != key.mac_key


def test_ciphertext_len_accounts_for_all_parts(rng):
    key = derive_key("a", "b")
    ciphertext = encrypt(key, b"12345", rng)
    assert len(ciphertext) == len(ciphertext.nonce) + 5 + len(ciphertext.tag)


def test_long_message_roundtrip(rng):
    key = derive_key("a", "b")
    plaintext = bytes(range(256)) * 1000
    assert decrypt(key, encrypt(key, plaintext, rng)) == plaintext


def test_known_answer():
    """Pins the wire bytes: a keystream or tag change must show up here."""
    ciphertext = encrypt(
        derive_key("alice", "bob"), bytes(range(64)), np.random.default_rng(0)
    )
    assert ciphertext.nonce.hex() == "5f82c2d9cfeb0fa321d7d982f8bd1045"
    assert ciphertext.body.hex() == (
        "ca3f0f4a01b85eb5ac48dc652d5539418a29e74cb6e220a46c72f72e8bf9ba84"
        "9e0381b3531992d4387f2ba0cb6d45dd8d7d6047fb994095ec253b9d4a618fd5"
    )
    assert ciphertext.tag.hex() == (
        "1acfc656eb97df707f28312c752631768253fab237bae70ea6d1257279ba0f6b"
    )


@pytest.mark.parametrize("short", [0, 1, 31, 32, 33, 4097])
def test_keystream_is_prefix_stable(short):
    key = derive_key("alice", "bob")
    nonce = bytes(range(16))
    assert crypto._keystream(key, nonce, short) == crypto._keystream(
        key, nonce, 8192
    )[:short]


def test_tampered_tag_rejected_before_keystream(rng, monkeypatch):
    key = derive_key("alice", "bob")
    ciphertext = encrypt(key, b"attack at dawn", rng)
    tampered = Ciphertext(
        nonce=ciphertext.nonce,
        body=ciphertext.body,
        tag=bytes([ciphertext.tag[0] ^ 1]) + ciphertext.tag[1:],
    )

    def no_keystream(*args):
        raise AssertionError("keystream computed before the tag verified")

    monkeypatch.setattr(crypto, "_keystream", no_keystream)
    with pytest.raises(TransportError):
        decrypt(key, tampered)
