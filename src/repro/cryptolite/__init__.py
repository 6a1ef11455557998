"""Educational from-scratch crypto for communication-plugin payloads.

The paper (§4B) names AES and RSA as encryption choices for the
operator-customised RIC <-> E2-node wire protocol.  This package implements
both from first principles so the encryption code path can run offline:

- :mod:`repro.cryptolite.aes` - the AES-128 block cipher per FIPS-197 and
  the CTR mode the communication plugins use;
- :mod:`repro.cryptolite.rsa` - textbook RSA keygen/encrypt/decrypt over
  Python big integers, plus a tiny PKCS#1-v1.5-style random padder.

**Not for production**: pure-Python, non-constant-time, and textbook RSA
has no OAEP.  Within this reproduction they exist to exercise the same
code path the paper describes (encrypting E2 payloads inside plugins).
"""

from repro.cryptolite.aes import AesCtr, aes128_encrypt_block
from repro.cryptolite.rsa import RsaKeyPair, generate_keypair

__all__ = [
    "aes128_encrypt_block",
    "AesCtr",
    "RsaKeyPair",
    "generate_keypair",
]
