"""ASCON-128 / ASCON-128a authenticated encryption with associated data.

A self-contained implementation of the NIST lightweight-cryptography
winner (classic v1.2 parameter sets), bit-exact against the official
known-answer vectors, with a KAT verification harness and a CLI.

    >>> from ascon_aead import ASCON_128, encrypt, decrypt
    >>> key, nonce = bytes(16), bytes(range(16))
    >>> ct, tag = encrypt(ASCON_128, key, nonce, b"header", b"payload")
    >>> decrypt(ASCON_128, key, nonce, b"header", ct, tag)
    b'payload'

Nonces must be unique per key; see `aead` for the full contract.
"""

from .aead import (
    ASCON_128,
    ASCON_128A,
    VARIANTS,
    AuthenticationFailure,
    VariantParams,
    backend_info,
    decrypt,
    encrypt,
)
from .permutation import State, permute

__version__ = "1.0.0"

__all__ = [
    "ASCON_128",
    "ASCON_128A",
    "VARIANTS",
    "AuthenticationFailure",
    "State",
    "VariantParams",
    "backend_info",
    "decrypt",
    "encrypt",
    "permute",
    "__version__",
]
