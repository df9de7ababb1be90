"""Pure-Python AES-128 (FIPS-197) with per-round state access.

Besides ``encrypt_block``/``decrypt_block``, the module exposes
:func:`round_states`, the sequence of intermediate 128-bit states after
each round — exactly what the round-per-cycle HDL model clocks through
its state register, making the recorded switching activity that of the
real algorithm.

States are 16-byte lists in FIPS column-major order; block values cross
the API as 128-bit integers (big-endian byte order).
"""

from __future__ import annotations

from typing import List

from .tables import (
    INV_SBOX,
    MUL_2,
    MUL_3,
    MUL_9,
    MUL_11,
    MUL_13,
    MUL_14,
    RCON,
    SBOX,
)

#: Number of rounds for AES-128.
NUM_ROUNDS = 10

State = List[int]


def block_to_state(block: int) -> State:
    """128-bit integer -> 16-byte state (byte 0 is the MSB)."""
    return [(block >> (120 - 8 * i)) & 0xFF for i in range(16)]


def state_to_block(state: State) -> int:
    """16-byte state -> 128-bit integer."""
    return int.from_bytes(bytes(state), "big")


# ----------------------------------------------------------------------
# round operations
# ----------------------------------------------------------------------
def sub_bytes(state: State) -> State:
    """SubBytes: the S-box applied to every byte."""
    return [SBOX[b] for b in state]


def inv_sub_bytes(state: State) -> State:
    """InvSubBytes."""
    return [INV_SBOX[b] for b in state]


def shift_rows(state: State) -> State:
    """ShiftRows on the column-major byte layout."""
    out = [0] * 16
    for col in range(4):
        for row in range(4):
            out[col * 4 + row] = state[((col + row) % 4) * 4 + row]
    return out


def inv_shift_rows(state: State) -> State:
    """InvShiftRows."""
    out = [0] * 16
    for col in range(4):
        for row in range(4):
            out[((col + row) % 4) * 4 + row] = state[col * 4 + row]
    return out


def mix_columns(state: State) -> State:
    """MixColumns: each column multiplied by the fixed polynomial."""
    out = [0] * 16
    for col in range(0, 16, 4):
        a0, a1, a2, a3 = state[col : col + 4]
        out[col + 0] = MUL_2[a0] ^ MUL_3[a1] ^ a2 ^ a3
        out[col + 1] = a0 ^ MUL_2[a1] ^ MUL_3[a2] ^ a3
        out[col + 2] = a0 ^ a1 ^ MUL_2[a2] ^ MUL_3[a3]
        out[col + 3] = MUL_3[a0] ^ a1 ^ a2 ^ MUL_2[a3]
    return out


def inv_mix_columns(state: State) -> State:
    """InvMixColumns."""
    out = [0] * 16
    for col in range(0, 16, 4):
        a0, a1, a2, a3 = state[col : col + 4]
        out[col + 0] = MUL_14[a0] ^ MUL_11[a1] ^ MUL_13[a2] ^ MUL_9[a3]
        out[col + 1] = MUL_9[a0] ^ MUL_14[a1] ^ MUL_11[a2] ^ MUL_13[a3]
        out[col + 2] = MUL_13[a0] ^ MUL_9[a1] ^ MUL_14[a2] ^ MUL_11[a3]
        out[col + 3] = MUL_11[a0] ^ MUL_13[a1] ^ MUL_9[a2] ^ MUL_14[a3]
    return out


def add_round_key(state: State, round_key: State) -> State:
    """AddRoundKey: byte-wise XOR with the round key."""
    return [s ^ k for s, k in zip(state, round_key)]


# ----------------------------------------------------------------------
# key schedule
# ----------------------------------------------------------------------
def expand_key(key: int) -> List[State]:
    """FIPS-197 key expansion: 11 round keys as 16-byte states."""
    words: List[List[int]] = []
    key_bytes = block_to_state(key)
    for i in range(4):
        words.append(key_bytes[i * 4 : i * 4 + 4])
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [SBOX[b] for b in temp]
            temp[0] ^= RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    round_keys = []
    for r in range(NUM_ROUNDS + 1):
        flat: State = []
        for w in words[r * 4 : r * 4 + 4]:
            flat.extend(w)
        round_keys.append(flat)
    return round_keys


# ----------------------------------------------------------------------
# block operations
# ----------------------------------------------------------------------
def encrypt_round(state: State, round_key: State, last: bool) -> State:
    """One encryption round (MixColumns skipped on the last round)."""
    state = sub_bytes(state)
    state = shift_rows(state)
    if not last:
        state = mix_columns(state)
    return add_round_key(state, round_key)


def decrypt_round(state: State, round_key: State, last: bool) -> State:
    """One (straightforward) decryption round."""
    state = inv_shift_rows(state)
    state = inv_sub_bytes(state)
    state = add_round_key(state, round_key)
    if not last:
        state = inv_mix_columns(state)
    return state


def round_states(block: int, key: int, decrypt: bool = False) -> List[int]:
    """Per-cycle register values of the round-iterative datapath.

    ``result[0]`` is the state after the initial AddRoundKey (the value
    latched when ``start`` fires) and ``result[r]`` the state after round
    ``r``; ``result[10]`` is the output block.
    """
    round_keys = expand_key(key)
    states: List[int] = []
    if not decrypt:
        state = add_round_key(block_to_state(block), round_keys[0])
        states.append(state_to_block(state))
        for r in range(1, NUM_ROUNDS + 1):
            state = encrypt_round(state, round_keys[r], last=r == NUM_ROUNDS)
            states.append(state_to_block(state))
    else:
        state = add_round_key(block_to_state(block), round_keys[NUM_ROUNDS])
        states.append(state_to_block(state))
        for r in range(NUM_ROUNDS - 1, -1, -1):
            state = decrypt_round(state, round_keys[r], last=r == 0)
            states.append(state_to_block(state))
    return states


def encrypt_block(block: int, key: int) -> int:
    """AES-128 ECB encryption of one 128-bit block."""
    return round_states(block, key, decrypt=False)[-1]


def decrypt_block(block: int, key: int) -> int:
    """AES-128 ECB decryption of one 128-bit block."""
    return round_states(block, key, decrypt=True)[-1]
