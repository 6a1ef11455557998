"""AES-128 per FIPS-197, pure Python.

Implements the forward cipher over 16-byte blocks, plus the CTR mode
stream wrapper that is all the communication plugins need (CTR decrypts
by encrypting the same counter stream).  The S-box is generated from the algebraic definition
(multiplicative inverse in GF(2^8) followed by the affine map) rather than
pasted as a magic table, and the test suite pins the FIPS-197 Appendix C
known-answer vectors.
"""

from __future__ import annotations

_NB = 4  # columns per state
_NK = 4  # key words (AES-128)
_NR = 10  # rounds (AES-128)


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """Multiplication in GF(2^8) with the AES polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> bytes:
    # multiplicative inverses via exponentiation (a^254 = a^-1 in GF(2^8))
    def inverse(a: int) -> int:
        if a == 0:
            return 0
        result = 1
        power = a
        exponent = 254
        while exponent:
            if exponent & 1:
                result = _gmul(result, power)
            power = _gmul(power, power)
            exponent >>= 1
        return result

    sbox = bytearray(256)
    for value in range(256):
        inv = inverse(value)
        # affine transformation: b ^ rot(b,1) ^ rot(b,2) ^ rot(b,3) ^ rot(b,4) ^ 0x63
        b = inv
        x = inv
        for _ in range(4):
            x = ((x << 1) | (x >> 7)) & 0xFF
            b ^= x
        sbox[value] = b ^ 0x63
    return bytes(sbox)


_SBOX = _build_sbox()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _expand_key(key: bytes) -> list[list[int]]:
    """Key expansion: 16-byte key -> (NR+1) round keys of 16 bytes each."""
    if len(key) != 16:
        raise ValueError("AES-128 key must be 16 bytes")
    words = [list(key[4 * i : 4 * i + 4]) for i in range(_NK)]
    for i in range(_NK, _NB * (_NR + 1)):
        temp = list(words[i - 1])
        if i % _NK == 0:
            temp = temp[1:] + temp[:1]  # RotWord
            temp = [_SBOX[b] for b in temp]  # SubWord
            temp[0] ^= _RCON[i // _NK - 1]
        words.append([words[i - _NK][j] ^ temp[j] for j in range(4)])
    round_keys = []
    for r in range(_NR + 1):
        rk = []
        for w in words[4 * r : 4 * r + 4]:
            rk.extend(w)
        round_keys.append(rk)
    return round_keys


def _add_round_key(state: list[int], rk: list[int]) -> None:
    for i in range(16):
        state[i] ^= rk[i]


def _sub_bytes(state: list[int]) -> None:
    for i in range(16):
        state[i] = _SBOX[state[i]]


# state layout: column-major, state[r + 4c] is row r column c


def _shift_rows(state: list[int]) -> None:
    for r in range(1, 4):
        row = [state[r + 4 * c] for c in range(4)]
        row = row[r:] + row[:r]
        for c in range(4):
            state[r + 4 * c] = row[c]


def _mix_columns(state: list[int]) -> None:
    for c in range(4):
        col = state[4 * c : 4 * c + 4]
        state[4 * c + 0] = _gmul(col[0], 2) ^ _gmul(col[1], 3) ^ col[2] ^ col[3]
        state[4 * c + 1] = col[0] ^ _gmul(col[1], 2) ^ _gmul(col[2], 3) ^ col[3]
        state[4 * c + 2] = col[0] ^ col[1] ^ _gmul(col[2], 2) ^ _gmul(col[3], 3)
        state[4 * c + 3] = _gmul(col[0], 3) ^ col[1] ^ col[2] ^ _gmul(col[3], 2)


def aes128_encrypt_block(key: bytes, block: bytes) -> bytes:
    """Encrypt one 16-byte block."""
    if len(block) != 16:
        raise ValueError("block must be 16 bytes")
    round_keys = _expand_key(key)
    state = list(block)
    _add_round_key(state, round_keys[0])
    for r in range(1, _NR):
        _sub_bytes(state)
        _shift_rows(state)
        _mix_columns(state)
        _add_round_key(state, round_keys[r])
    _sub_bytes(state)
    _shift_rows(state)
    _add_round_key(state, round_keys[_NR])
    return bytes(state)


class AesCtr:
    """AES-128 in counter mode: a symmetric stream over arbitrary lengths.

    Encryption and decryption are the same operation; the 16-byte block
    counter starts from ``nonce || counter`` with a 64-bit big-endian
    counter in the low half.
    """

    def __init__(self, key: bytes, nonce: bytes):
        if len(nonce) != 8:
            raise ValueError("CTR nonce must be 8 bytes")
        self._round_keys_key = bytes(key)
        self.nonce = bytes(nonce)

    def process(self, data: bytes, initial_counter: int = 0) -> bytes:
        out = bytearray()
        counter = initial_counter
        for start in range(0, len(data), 16):
            counter_block = self.nonce + counter.to_bytes(8, "big")
            keystream = aes128_encrypt_block(self._round_keys_key, counter_block)
            chunk = data[start : start + 16]
            out.extend(a ^ b for a, b in zip(chunk, keystream))
            counter += 1
        return bytes(out)

    encrypt = process
    decrypt = process
