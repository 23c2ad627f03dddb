"""Scaling report: how the main costs grow with the prime bound B and weight k.

Not a gated workload: it prints one JSON object with the median time at each
size and the least-squares slope of log(time) against log(size).

    python3 benchmark/scaling.py
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(run.SRC))

from spinlift import analytic, lifting, localfactors, modforms  # noqa: E402

BOUNDS = (200, 500, 1000, 2000)
WEIGHTS = (14, 30, 60)
TENSOR_PRIME = 101


def median_ms(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1000)
    return statistics.median(samples)


def loglog_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def series(sizes, fn, repeats: int) -> dict:
    ms = [median_ms(lambda n=n: fn(n), repeats) for n in sizes]
    return {"sizes": list(sizes), "median_ms": ms, "loglog_exponent": loglog_slope(sizes, ms)}


def scaling(bounds=BOUNDS, weights=WEIGHTS, repeats: int = 3) -> dict:
    records = {r.label: r for r in modforms.fixture_records(max(bounds))}
    h, g = records["Delta.12.1"], records["SK.14.2"]

    def factor(p):
        gsp4 = localfactors.gsp4_spin_factor_exact(g.weight, p, g.lambda_p(p), g.lambda_p2(p))
        return lifting.lifted_spin_factor_exact(h.weight, h.lambda_p(p), gsp4)

    def tensor(k):
        p = TENSOR_PRIME
        gl2 = localfactors.gl2_factor_exact(k - 2, p, 0)
        lam, lam2 = modforms.sk_eigenvalue(k, p, 0), modforms.sk_eigenvalue_psquared(k, p, 0)
        gsp4 = localfactors.gsp4_spin_factor_exact(k, p, lam, lam2)
        localfactors.tensor_local_factor(gl2, gsp4)

    return {
        "fixture_records": series(bounds, lambda b: modforms.fixture_records(b), repeats),
        "truncated_euler_product": series(
            bounds, lambda b: analytic.truncated_euler_product(factor, 23, b, 36), repeats
        ),
        "tensor_local_factor": {**series(weights, tensor, 5 * repeats), "p": TENSOR_PRIME},
        "unit": "ms",
    }


if __name__ == "__main__":
    print(json.dumps(scaling(), indent=1))
