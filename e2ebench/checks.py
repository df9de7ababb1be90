"""Output checks computed apart from the program.

Each check returns a list of problems (empty when it passes); a
workload counts an operation with any problem as failed.  None of them
compares against a stored copy of earlier output: the cipher vectors
come from their standards, the RAM and MultSum traces are replayed
through models written here, and MRE is recomputed by its definition.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

#: FIPS-197 Appendix C.1 (AES-128): key, plaintext, ciphertext.
AES_VECTOR = (
    0x000102030405060708090A0B0C0D0E0F,
    0x00112233445566778899AABBCCDDEEFF,
    0x69C4E0D86A7B0430D8CDB78070B4C55A,
)
#: RFC 3713 Appendix A (Camellia-128): key, plaintext, ciphertext.
CAMELLIA_VECTOR = (
    0x0123456789ABCDEFFEDCBA9876543210,
    0x0123456789ABCDEFFEDCBA9876543210,
    0x67673138549669730857065648EABE43,
)

#: Held-out MRE (%) over reliable instants in the paper's Table III.
PAPER_TABLE3_MRE = {"RAM": 0.29, "MultSum": 3.97, "AES": 3.11, "Camellia": 32.64}
#: Percentage points a reproduction may sit above the paper's figure.
#: The reproduction's power models and 12k-instant traces differ from
#: the paper's gate-level flow (EXPERIMENTS.md measures 1.4 / 7.5 / 3.5 /
#: 29.9 %), so the ceiling catches a broken model, not a small drift.
MRE_SLACK_POINTS = 5.0
MRE_CEILING = {ip: mre + MRE_SLACK_POINTS for ip, mre in PAPER_TABLE3_MRE.items()}

MASK32 = 0xFFFFFFFF


def mre_percent(estimated: Sequence[float], reference: Sequence[float]) -> float:
    """Mean relative error in percent, by its definition.

    The denominator is floored at 1 % of the mean reference power, the
    convention the program documents for near-zero instants.
    """
    n = len(reference)
    if n == 0 or len(estimated) != n:
        raise ValueError("MRE needs two non-empty series of equal length")
    floor = 0.01 * (math.fsum(reference) / n)
    total = math.fsum(
        abs(e - r) / max(r, floor) for e, r in zip(estimated, reference)
    )
    return 100.0 * total / n


def agrees(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def check_mre(ip: str, own: float, program: float) -> List[str]:
    """Own MRE equals the program's, and sits under the IP's ceiling."""
    problems = []
    if not agrees(own, program):
        problems.append(f"MRE {program!r} != recomputed {own!r}")
    if not own <= MRE_CEILING[ip]:
        problems.append(f"MRE {own:.3f}% above ceiling {MRE_CEILING[ip]:.2f}%")
    return problems


def cipher_stimulus(key: int, data: int, has_mode: bool) -> List[Dict[str, int]]:
    """Key load, start, then idle cycles past the core's latency."""
    idle = {"en": 1, "load_key": 0, "start": 0, "decrypt": 0, "key": key, "data": data}
    if has_mode:
        idle["mode"] = 0
    return [dict(idle, load_key=1), dict(idle, start=1)] + [dict(idle) for _ in range(28)]


def check_cipher_output(trace, expected: int) -> List[str]:
    """The first ``out`` value under ``done`` equals the standard's."""
    done = trace.column("done")
    out = trace.column("out")
    for i in range(len(done)):
        if int(done[i]):
            got = int(out[i])
            if got != expected:
                return [f"cipher output {got:#034x} != {expected:#034x}"]
            return []
    return ["cipher never raised done"]


def check_ram_trace(trace) -> List[str]:
    """Replay a RAM functional trace through a dict model of its spec."""
    cols = {name: trace.column(name) for name in ("rst", "cs", "en", "we", "addr", "wdata", "rdata")}
    memory: Dict[int, int] = {}
    rdata = 0
    for i in range(len(cols["rst"])):
        if int(cols["rst"][i]):
            rdata = 0
        elif int(cols["cs"][i]) and int(cols["en"][i]):
            addr = int(cols["addr"][i])
            if int(cols["we"][i]):
                memory[addr] = rdata = int(cols["wdata"][i])
            else:
                rdata = memory.get(addr, 0)
        if int(cols["rdata"][i]) != rdata:
            return [f"RAM rdata at cycle {i}: {int(cols['rdata'][i])} != {rdata}"]
    return []


def check_multsum_trace(trace) -> List[str]:
    """Replay a MultSum trace through a multiply-accumulate model."""
    a, b, c = trace.column("a"), trace.column("b"), trace.column("c")
    clear, result = trace.column("clear"), trace.column("result")
    acc = 0
    for i in range(len(a)):
        base = 0 if int(clear[i]) else acc
        acc = (base + int(a[i]) * int(b[i]) + int(c[i])) & MASK32
        if int(result[i]) != acc:
            return [f"MultSum result at cycle {i}: {int(result[i])} != {acc}"]
    return []
