"""Long-lived worker for the ``qftd_large`` workload.

Usage: python worker.py <seed>

Imports qftcalc, builds the seeded random input at n=16 and runs one untimed
exact warm-up call, then prints a JSON ``ready`` line. After that every stdin
line is a JSON request ``{"op", "shots", "seed", "out", "trace"}``: the worker
times one ``qftcalc.qftd_run`` call from call to return, saves the returned
series to ``out`` (.npz) and answers with ``{"op_s": seconds}`` or
``{"error": message}``. At end of input it writes the spans of traced ops to
the file named by ``PERFBENCH_SPANS`` and exits.
"""

import json
import os
import sys
import time

import numpy as np

N_QUBITS = 16
DX = 2.0**-N_QUBITS


def make_samples(seed: int) -> np.ndarray:
    """The workload input: seeded standard-normal samples on 2^16 points."""
    return np.random.default_rng(seed).standard_normal(1 << N_QUBITS)


def main() -> int:
    import qftcalc
    from tracer import Tracer

    f = qftcalc.SampledFunction(make_samples(int(sys.argv[1])), 0.0, DX)
    qftcalc.qftd_run(f, None, 0)
    print(json.dumps({"ready": True}), flush=True)

    tracer = Tracer()
    for line in sys.stdin:
        request = json.loads(line)
        if request["trace"]:
            tracer.op = request["op"]
            tracer.install()
        start = time.perf_counter()
        try:
            series = qftcalc.qftd_run(f, request["shots"], request["seed"])
        except Exception as exc:  # reported as a failed op; the worker keeps serving
            reply = {"op_s": time.perf_counter() - start, "error": f"{type(exc).__name__}: {exc}"}
        else:
            reply = {"op_s": time.perf_counter() - start}
            np.savez(
                request["out"],
                value_sq=series.value_sq,
                retained=series.retained,
                success_probability=series.success_probability,
            )
        finally:
            tracer.uninstall()
        print(json.dumps(reply), flush=True)

    spans_path = os.environ.get("PERFBENCH_SPANS")
    if spans_path:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
