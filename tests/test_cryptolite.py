"""Crypto tests, including FIPS-197 known-answer vectors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cryptolite import (
    AesCtr,
    aes128_encrypt_block,
    generate_keypair,
)


class TestAesKnownAnswers:
    def test_fips197_appendix_c1(self):
        """FIPS-197 Appendix C.1 AES-128 vector."""
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert aes128_encrypt_block(key, plaintext) == expected

    def test_fips197_appendix_b(self):
        """FIPS-197 Appendix B worked example."""
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert aes128_encrypt_block(key, plaintext) == expected

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=1, max_size=64))
    @settings(max_examples=20, deadline=None)
    def test_encrypt_decrypt_roundtrip(self, key, data):
        """CTR decrypts by encrypting the same counter stream again."""
        ctr = AesCtr(key, b"n" * 8)
        assert ctr.decrypt(ctr.encrypt(data)) == data

    def test_block_size_enforced(self):
        with pytest.raises(ValueError):
            aes128_encrypt_block(b"k" * 16, b"short")
        with pytest.raises(ValueError):
            aes128_encrypt_block(b"short", b"p" * 16)


class TestAesCtr:
    def test_roundtrip_arbitrary_length(self):
        ctr = AesCtr(b"0123456789abcdef", b"nonce123")
        message = b"E2 indication payload " * 7 + b"tail"
        assert ctr.decrypt(ctr.encrypt(message)) == message

    def test_different_nonce_different_stream(self):
        key = b"k" * 16
        a = AesCtr(key, b"nonce--1").encrypt(b"\x00" * 32)
        b = AesCtr(key, b"nonce--2").encrypt(b"\x00" * 32)
        assert a != b

    def test_counter_offset(self):
        ctr = AesCtr(b"k" * 16, b"n" * 8)
        whole = ctr.encrypt(b"\x00" * 32)
        second_block = ctr.process(b"\x00" * 16, initial_counter=1)
        assert whole[16:] == second_block

    def test_nonce_length_enforced(self):
        with pytest.raises(ValueError):
            AesCtr(b"k" * 16, b"short")

    def test_empty_message(self):
        assert AesCtr(b"k" * 16, b"n" * 8).encrypt(b"") == b""


class TestRsa:
    @pytest.fixture(scope="class")
    def keypair(self):
        return generate_keypair(bits=512, seed=1234)

    def test_int_roundtrip(self, keypair):
        m = 123456789
        assert keypair.decrypt_int(keypair.encrypt_int(m)) == m

    def test_bytes_roundtrip(self, keypair):
        message = b"slice quota update"
        ct = keypair.encrypt(message, rng=random.Random(1))
        assert keypair.decrypt(ct) == message

    def test_padding_randomised(self, keypair):
        message = b"m"
        a = keypair.encrypt(message, rng=random.Random(1))
        b = keypair.encrypt(message, rng=random.Random(2))
        assert a != b
        assert keypair.decrypt(a) == keypair.decrypt(b) == message

    def test_message_too_long_rejected(self, keypair):
        with pytest.raises(ValueError, match="too long"):
            keypair.encrypt(b"x" * keypair.byte_length)

    def test_deterministic_keygen(self):
        a = generate_keypair(bits=256, seed=42)
        b = generate_keypair(bits=256, seed=42)
        assert a.n == b.n and a.d == b.d

    def test_tampered_ciphertext_detected_or_garbled(self, keypair):
        message = b"important"
        ct = bytearray(keypair.encrypt(message, rng=random.Random(3)))
        ct[5] ^= 0xFF
        try:
            out = keypair.decrypt(bytes(ct))
        except ValueError:
            return  # padding check caught it
        assert out != message

    def test_too_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(bits=64)
