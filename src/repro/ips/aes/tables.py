"""AES (FIPS-197) lookup tables, generated algebraically.

The S-box is the multiplicative inverse in GF(2^8) (modulo the AES
polynomial ``x^8 + x^4 + x^3 + x + 1``) followed by the FIPS-197 affine
transform.  Generating the tables instead of hard-coding them keeps the
source auditable; the unit tests validate the cipher against the FIPS-197
vectors and a reference library.
"""

from __future__ import annotations

from typing import List, Tuple

#: The AES field polynomial (x^8 + x^4 + x^3 + x + 1).
AES_POLY = 0x11B


def gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(2^8) modulo the AES polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= AES_POLY
        b >>= 1
    return result


def _build_log_tables() -> Tuple[List[int], List[int]]:
    """Discrete log/antilog tables over the generator 3."""
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = gf_mul(x, 3)
    return exp, log


_EXP, _LOG = _build_log_tables()


def gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(2^8); inverse of 0 is defined as 0."""
    if a == 0:
        return 0
    return _EXP[(255 - _LOG[a]) % 255]


def _rotl8(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (8 - amount))) & 0xFF


def _affine(b: int) -> int:
    """The FIPS-197 affine transform applied after inversion."""
    return (
        b
        ^ _rotl8(b, 1)
        ^ _rotl8(b, 2)
        ^ _rotl8(b, 3)
        ^ _rotl8(b, 4)
        ^ 0x63
    )


def _build_sbox() -> Tuple[List[int], List[int]]:
    sbox = [0] * 256
    inv_sbox = [0] * 256
    for value in range(256):
        s = _affine(gf_inverse(value))
        sbox[value] = s
        inv_sbox[s] = value
    return sbox, inv_sbox


#: Forward and inverse S-boxes.
SBOX, INV_SBOX = _build_sbox()

def _product_table(constant: int) -> List[int]:
    """``gf_mul(x, constant)`` for every byte ``x``."""
    return [gf_mul(x, constant) for x in range(256)]


#: MixColumns / InvMixColumns products: ``MUL_k[x] == gf_mul(x, k)``.
MUL_2 = _product_table(2)
MUL_3 = _product_table(3)
MUL_9 = _product_table(9)
MUL_11 = _product_table(11)
MUL_13 = _product_table(13)
MUL_14 = _product_table(14)

#: Round constants for the key expansion (Rcon[1..10]).
RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]
