"""Tiny-size self-test: the benchmark's checks must bite.

Runs each workload at toy sizes twice: once as is, which must count no
failed operation, and once with one fault injected between the program
and the check, which must count exactly the faulty operations as failed:

* ``serve``: one served estimate perturbed in its last digit;
* ``fit-eval``: the program's MRE off by one part in a thousand;
* ``refine``: a refine result whose MRE rose.

It also checks that the host calibration refuses to run while program
work is in flight.  Usage: ``python3 e2ebench/selftest.py`` (a
few seconds; exits non-zero on the first check that does not hold).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.import_program()

import fiteval  # noqa: E402
import refine  # noqa: E402
import serve  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_round(workload):
    outcome = common.Outcome()
    workload.run_round(common.HostClock(), outcome, Tracer())
    return outcome


def expect(outcome, failed: int, what: str, reason: str = "") -> None:
    """Exactly ``failed`` operations failed, each for ``reason`` if given."""
    if outcome.failed != failed or not all(reason in f for f in outcome.failures):
        raise SystemExit(
            f"FAIL {what}: {outcome.failed} of {outcome.attempted} failed, "
            f"expected {failed}{f' for {reason!r}' if reason else ''}: "
            f"{outcome.failures}"
        )
    print(f"ok   {what}: {outcome.failed} of {outcome.attempted} failed")


def test_calibration_guard() -> None:
    clock = common.HostClock()
    with clock.op():
        try:
            clock.calibrate()
        except RuntimeError:
            pass
        else:
            raise SystemExit("FAIL calibration ran inside an operation")
    try:
        clock.calibrate(inflight=1)
    except RuntimeError:
        print("ok   calibration refuses to run beside program work")
        return
    raise SystemExit("FAIL calibration ran with a request in flight")


def test_fit_eval() -> None:
    fiteval.IPS = ("RAM", "MultSum")
    fiteval.HELD_OUT_SEEDS = (1,)
    fiteval.LONG_CYCLES = 4000
    workload = fiteval.FitEval(seed=3)
    workload.setup()
    expect(run_round(workload), 0, "fit-eval as is")
    program_mre = fiteval.mre
    fiteval.mre = lambda est, ref: program_mre(est, ref) * 1.001
    try:
        expect(run_round(workload), 2, "fit-eval with a wrong MRE", "recomputed")
    finally:
        fiteval.mre = program_mre


def test_refine() -> None:
    refine.PANEL = (("RAM", 7),)
    workload = refine.Refine(seed=1)
    program_refine = refine.refine_once
    refine.refine_once = lambda ip, seed: program_refine(ip, seed, 1, 500)
    try:
        expect(run_round(workload), 0, "refine as is")
        # the reported after-MRE stays the true one, so only the
        # monotonicity check can see the fault
        refine.refine_once = lambda ip, seed: dataclasses.replace(
            (r := program_refine(ip, seed, 1, 500)), mre_before=r.mre_after - 1.0
        )
        expect(run_round(workload), 1, "refine with a rising MRE", "MRE rose")
    finally:
        refine.refine_once = program_refine


def test_serve() -> None:
    serve.IPS = ("RAM", "MultSum")
    serve.WINDOWS_PER_IP = 1
    serve.REPEATS = 1
    serve.ROUND_REQUESTS = 4
    serve.SLICES = 2
    workload = serve.Serve(seed=5)
    try:
        workload.setup()
        expect(run_round(workload), 0, "serve as is")
        honest = workload._slice

        async def perturbed(items):
            responses = await honest(items)
            status, body, start, end = responses[0]
            payload = json.loads(body)
            payload["estimated"][0] = payload["estimated"][0] * (1 + 1e-12) + 1e-300
            responses[0] = (status, json.dumps(payload).encode(), start, end)
            return responses

        workload._slice = perturbed
        expect(run_round(workload), 2, "serve with a perturbed estimate",
               "estimate differs")
    finally:
        workload.shutdown()


def main() -> int:
    test_calibration_guard()
    test_fit_eval()
    test_refine()
    test_serve()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
