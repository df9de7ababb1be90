"""Round-iterative AES-128 core as a clocked HDL module.

One round per cycle, matching a typical iterative RTL implementation:
``load_key`` runs the key expansion, ``start`` latches the whitened block
into the 128-bit state register, ten ``busy`` cycles apply the rounds
(encryption or decryption), then ``done`` rises with the result on
``out``.

Interface (260 PI bits / 129 PO bits, as in the paper's Table I):

============  =======  ======================================
``en``        1 bit    core enable
``load_key``  1 bit    run the key schedule on ``key``
``start``     1 bit    begin processing ``data``
``decrypt``   1 bit    0 = encrypt, 1 = decrypt
``key``       128 bit  cipher key
``data``      128 bit  input block
``out``       128 bit  result block (registered)
``done``      1 bit    result valid
============  =======  ======================================
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ...hdl.module import Module
from ...hdl.signal import hamming
from ...traces.variables import bool_in, bool_out, int_in, int_out
from .cipher import (
    NUM_ROUNDS,
    add_round_key,
    block_to_state,
    expand_key,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    mix_columns,
    shift_rows,
    state_to_block,
    sub_bytes,
)


class Aes(Module):
    """Cycle-accurate iterative AES-128 encryption/decryption core."""

    NAME = "AES"
    INPUTS = (
        bool_in("en"),
        bool_in("load_key"),
        bool_in("start"),
        bool_in("decrypt"),
        int_in("key", 128),
        int_in("data", 128),
    )
    OUTPUTS = (
        int_out("out", 128),
        bool_out("done"),
    )
    #: The round counter — the sub-component boundary signal exposed to
    #: hierarchical characterisation.
    PROBES = (int_out("round_counter", 4),)

    #: AES's round datapath dominates; its subcomponents (S-boxes, key
    #: schedule) switch coherently with the round register, which is why
    #: the paper finds AES's power well correlated with its behaviour.
    #: Combinational cone estimate: 16 S-boxes, ShiftRows/MixColumns
    #: network and the on-the-fly key schedule.
    COMB_GATES = 8000
    COMPONENT_CAPS = {
        "round_datapath": 1.0,
        "sbox_network": 0.6,
        "key_schedule": 0.8,
        "control": 1.0,
        "io": 0.15,
        "clock_tree": 1.0,
    }

    def __init__(self) -> None:
        super().__init__()
        self._state = self.reg("state_reg", 128, component="round_datapath")
        self._round_key = self.reg(
            "round_key_reg", 128, component="key_schedule"
        )
        self._key = self.reg("key_reg", 128, component="key_schedule")
        self._counter = self.reg("round_counter", 4, component="control")
        self._busy = self.reg("busy", 1, component="control")
        self._done = self.reg("done_reg", 1, component="control")
        self._out = self.reg("out_reg", 128, component="io")
        self._key_ints: List[int] = []
        self._state_bytes: List[int] = []
        self._key_order: List[int] = []

    def reset(self) -> None:
        super().reset()
        self._key_ints = []
        self._state_bytes = []
        self._key_order = []

    def _expand(self, key: int) -> None:
        """Run the key schedule and account its switching."""
        self._round_keys = expand_key(key)
        self._key_ints = [state_to_block(rk) for rk in self._round_keys]
        toggles = sum(
            hamming(self._key_ints[i], self._key_ints[i + 1])
            for i in range(NUM_ROUNDS)
        )
        self.add_activity("key_schedule", 0.3 * toggles)

    def step(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """One clock cycle of the iterative core.

        Outputs are registered (Moore-style): the values returned are the
        ones visible on the pins *during* this cycle, i.e. the register
        contents before this cycle's clock edge, so ``done`` rises the
        cycle after the final round completes.
        """
        outputs = {"out": self._out.value, "done": self._done.value}
        if inputs["en"]:
            self.add_activity("clock_tree", 4.0)
            if inputs["load_key"]:
                self._key.load(inputs["key"])
                self._expand(inputs["key"])
            if inputs["start"] and not self._busy.value:
                if not self._key_ints:
                    self._key.load(inputs["key"])
                    self._expand(inputs["key"])
                self._decrypting = bool(inputs["decrypt"])
                self._key_order = (
                    list(range(NUM_ROUNDS, -1, -1))
                    if self._decrypting
                    else list(range(NUM_ROUNDS + 1))
                )
                # Initial AddRoundKey is performed while latching.
                self._state_bytes = add_round_key(
                    block_to_state(inputs["data"]),
                    self._round_keys[self._key_order[0]],
                )
                self._state.load(state_to_block(self._state_bytes))
                self._round_key.load(self._key_ints[self._key_order[0]])
                self._counter.load(0)
                self._busy.load(1)
                self._done.load(0)
            elif self._busy.value:
                # One full round of combinational logic per cycle, exactly
                # as the iterative RTL datapath computes it, with the
                # S-box / MixColumns glitching estimated stage by stage.
                round_index = self._counter.value + 1
                key_index = self._key_order[round_index]
                previous = self._state_bytes
                if self._decrypting:
                    shifted = inv_shift_rows(previous)
                    subbed = inv_sub_bytes(shifted)
                    keyed = add_round_key(subbed, self._round_keys[key_index])
                    new_state = (
                        keyed if key_index == 0 else inv_mix_columns(keyed)
                    )
                    stages = (shifted, subbed, new_state)
                else:
                    subbed = sub_bytes(previous)
                    shifted = shift_rows(subbed)
                    mixed = (
                        shifted
                        if key_index == NUM_ROUNDS
                        else mix_columns(shifted)
                    )
                    new_state = add_round_key(
                        mixed, self._round_keys[key_index]
                    )
                    stages = (subbed, mixed, new_state)
                # Byte-wise toggles between consecutive stages: one
                # popcount of each packed XOR counts the same bits.
                blocks = [state_to_block(previous)]
                blocks += [state_to_block(stage) for stage in stages]
                glitches = sum(
                    (a ^ b).bit_count() for a, b in zip(blocks, blocks[1:])
                )
                self.add_activity("sbox_network", 0.2 * glitches)
                self._state_bytes = new_state
                self._state.load(blocks[-1])
                self._round_key.load(self._key_ints[key_index])
                self._counter.load(round_index)
                if round_index == NUM_ROUNDS:
                    self._out.load(state_to_block(self._state_bytes))
                    self._busy.load(0)
                    self._done.load(1)
        if not inputs["en"]:
            # gated clock: only the always-on root buffer keeps toggling
            self.add_activity("clock_tree", 0.4)
        return outputs
