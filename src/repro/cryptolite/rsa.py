"""Textbook RSA over Python big integers.

Key generation uses Miller-Rabin probable primes from a seedable PRNG (so
tests are deterministic).  Encryption pads with a PKCS#1-v1.5-style random
non-zero filler.  Educational grade: no OAEP, not constant-time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_E = 65537

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 24) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if candidate % _E == 1:
            continue  # gcd(e, p-1) must be 1; cheap pre-filter
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass
class RsaKeyPair:
    """An RSA key pair: modulus n, public exponent e, private exponent d."""

    n: int
    e: int
    d: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    # ----- raw bigint operations -------------------------------------------

    def encrypt_int(self, m: int) -> int:
        if not 0 <= m < self.n:
            raise ValueError("message integer out of range")
        return pow(m, self.e, self.n)

    def decrypt_int(self, c: int) -> int:
        if not 0 <= c < self.n:
            raise ValueError("ciphertext integer out of range")
        return pow(c, self.d, self.n)

    # ----- byte-level with simple v1.5-style padding -------------------------

    def encrypt(self, message: bytes, rng: random.Random | None = None) -> bytes:
        """Encrypt up to ``byte_length - 11`` bytes with random padding."""
        rng = rng or random.Random()
        k = self.byte_length
        if len(message) > k - 11:
            raise ValueError(f"message too long ({len(message)} > {k - 11})")
        pad_len = k - 3 - len(message)
        padding = bytes(rng.randrange(1, 256) for _ in range(pad_len))
        block = b"\x00\x02" + padding + b"\x00" + message
        return self.encrypt_int(int.from_bytes(block, "big")).to_bytes(k, "big")

    def decrypt(self, ciphertext: bytes) -> bytes:
        k = self.byte_length
        if len(ciphertext) != k:
            raise ValueError("ciphertext length mismatch")
        block = self.decrypt_int(int.from_bytes(ciphertext, "big")).to_bytes(k, "big")
        if block[0:2] != b"\x00\x02":
            raise ValueError("bad padding header")
        try:
            sep = block.index(0, 2)
        except ValueError:
            raise ValueError("bad padding: no separator") from None
        return block[sep + 1 :]


def generate_keypair(bits: int = 1024, seed: int | None = None) -> RsaKeyPair:
    """Generate an RSA key pair with an ``bits``-bit modulus."""
    if bits < 128:
        raise ValueError("modulus too small to be meaningful")
    rng = random.Random(seed)
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        try:
            d = pow(_E, -1, phi)
        except ValueError:
            continue
        if n.bit_length() >= bits - 1:
            return RsaKeyPair(n=n, e=_E, d=d)
