"""spinlift benchmark: one closed-loop client, one op at a time, BLAS pinned to one thread.

    python3 benchmark/run.py --workload {fixtures,lvalue,verify,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run first repeats the untraced loop, then replays the same
ops with per-layer timing and prints the per-layer metrics.  The lines before
the last hold a report: provenance, the tail percentile and its sample count,
failures by kind and, on ``verify``, the counts of the known defects.  The
program's outputs are checked against ``oracles``; an oracle that cannot
run stops the benchmark with a traceback and no result line.
"""

from __future__ import annotations

import os

# Pinned before numpy can be imported, here and in every CLI subprocess.
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import CLI_COMMANDS, WORKLOADS, WRONG_KINDS, Sizes, Tracer  # noqa: E402

#: (name, unit) of the end-to-end metrics, printed with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics, printed with --trace 1.  Layers a
#: workload does not run read 0.  ``busy_ms`` is milliseconds per op.
PER_LAYER = (
    ("modforms.fixture_records.busy_ms", "ms"),
    ("modforms.delta.busy_ms", "ms"),
    ("modforms.eisenstein.busy_ms", "ms"),
    ("modforms.qseries_mul.busy_ms", "ms"),
    ("modforms.max_coeff_bits", "bits"),
    ("lifting.lifted_spin_factor_exact.busy_ms", "ms"),
    ("lifting.verify_tensor_identity.exact.busy_ms", "ms"),
    ("lifting.verify_tensor_identity.numeric.busy_ms", "ms"),
    ("lifting.numeric_false_fail.count", "count"),
    ("lifting.overflow.count", "count"),
    ("localfactors.tensor_local_factor.busy_ms", "ms"),
    ("localfactors.evaluate.busy_ms", "ms"),
    ("localfactors.max_coeff_bits", "bits"),
    ("analytic.truncated_euler_product.self_ms", "ms"),
    ("analytic.violations.count", "count"),
    ("cuspidality.cuspidality_decision.busy_ms", "ms"),
    ("cuspidality.not_cuspidal.count", "count"),
    ("hodge.weight_solver.busy_ms", "ms"),
    ("hodge.triples_checked.count", "count"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    *((f"cli.{c}.ms", "ms") for c in CLI_COMMANDS),
    *((f"cli.in_process.{c}.ms", "ms") for c in CLI_COMMANDS),
    ("trace.overhead_pct", "%"),
)


#: On a shared 2-vCPU Xeon VM, CPU speed drifted by tens of percent over
#: seconds to minutes, in step across the program's CPU-bound work: the
#: reference kernel below tracked it with correlation 0.87 to 0.99.  Every
#: reported time is the raw time scaled to the speed at which the kernel
#: takes NOMINAL_REF_MS, from kernel timings taken between ops; the raw
#: figures are in the report.
NOMINAL_REF_MS = 2.0
CALIBRATE_EVERY_S = 0.25


def reference_kernel() -> int:
    """Fixed pure-Python big-integer work; shares no code with the program."""
    x = 3**400
    acc = 0
    for i in range(2000):
        acc += (x * (x + i)) % 1000003
    return acc


class Speedometer:
    """Reference-kernel timings, each stamped with the time it ended."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.ref_ms: list[float] = []

    def measure(self) -> None:
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference_kernel()
            samples.append((time.perf_counter() - t0) * 1000)
        self.stamps.append(time.perf_counter())
        self.ref_ms.append(statistics.median(samples))

    def due(self) -> bool:
        return time.perf_counter() - self.stamps[-1] >= CALIBRATE_EVERY_S

    def scale(self, start: float) -> float:
        """Factor taking a raw time that began at ``start`` to nominal speed,
        from the kernel timings just before and just after it."""
        i = bisect.bisect_right(self.stamps, start)
        return NOMINAL_REF_MS / statistics.fmean(self.ref_ms[max(i - 1, 0) : i + 1])


@dataclass(frozen=True)
class OpRecord:
    op: object
    raw_ms: float
    ms: float  # at nominal speed
    kinds: list[str]


def closed_loop(workload, ops, seconds: float, speed: Speedometer, tracer: Tracer | None = None) -> list[OpRecord]:
    """Issue ops one at a time until they have taken ``seconds`` at nominal
    speed and at least ``workload.min_ops`` completed, so the mix a run
    covers does not depend on the host's speed.  On a host slower than a
    third of nominal the loop stops at 3 * ``seconds`` of wall time instead.
    Failed ops are recorded, never retried."""
    timed: list[tuple] = []
    speed.measure()
    elapsed = 0.0
    wall_limit = time.perf_counter() + 3 * seconds
    for op in ops:
        if len(timed) >= workload.min_ops and (elapsed >= seconds or time.perf_counter() >= wall_limit):
            break
        if speed.due():
            speed.measure()
        t0 = time.perf_counter()
        try:
            result = workload.call(op, tracer)
        except Exception as exc:  # a failed op: counted by kind, the loop goes on
            ms = (time.perf_counter() - t0) * 1000
            kinds = [f"exception.{type(exc).__name__}"]
        else:
            ms = (time.perf_counter() - t0) * 1000
            kinds = workload.check(op, result)
        if tracer is not None:
            for kind in kinds:
                tracer.counts[kind] += 1
        timed.append((op, t0, ms, kinds))
        elapsed += ms / 1000 * NOMINAL_REF_MS / speed.ref_ms[-1]
    speed.measure()
    return [OpRecord(op, ms, ms * speed.scale(t0), kinds) for op, t0, ms, kinds in timed]


def tail(samples: list[float]) -> dict:
    """Value at the highest percentile with at least ten samples beyond it
    (the maximum when there are ten samples or fewer)."""
    xs = sorted(samples)
    n = len(xs)
    i = n - 10 if n > 10 else n
    return {"value": xs[i - 1], "percentile": 100.0 * i / n, "samples": n, "beyond": n - i}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB; the
    CLI workload runs one child at a time."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(workload, seed: int, seconds: float, trace: bool) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "spinlift").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "fixtures_sha256": workload.fixtures_sha256,
        "clients": 1,
        "loop": "closed",
    }


def failure_counts(records: list[OpRecord]) -> dict[str, int]:
    return dict(sorted(Counter(k for r in records for k in r.kinds).items()))


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> tuple[dict, dict]:
    """Run one workload; returns (report, result) where result is the
    contract line: correct, attempted, failed and metrics."""
    if not (SRC / "spinlift" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'spinlift'}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if trace or workload_name != "cli":
        # Imported up front so no op or set-up sample pays for it; the untraced
        # CLI workload leaves the program to its subprocesses.
        import spinlift.cli  # noqa: F401
    workdir_root = ROOT / ".bench_work"
    workdir = workdir_root / f"{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[workload_name](ROOT, workdir, sizes)
        speed = Speedometer()
        setups = []
        for _ in range(sizes.setup_reps):
            speed.measure()
            t0 = time.perf_counter()
            workload.setup()
            setups.append((t0, time.perf_counter() - t0))
        speed.measure()
        setup_samples = [raw * speed.scale(t0) for t0, raw in setups]
        setup_problems = workload.check_setup()

        untraced = closed_loop(workload, workload.ops(random.Random(seed)), seconds, speed)
        failed = sum(1 for r in untraced if r.kinds)
        report = {
            "provenance": provenance(workload, seed, seconds, trace),
            "setup_s_samples": setup_samples,
            "reference_kernel_ms": {"nominal": NOMINAL_REF_MS, "median": statistics.median(speed.ref_ms),
                                    "min": min(speed.ref_ms), "max": max(speed.ref_ms), "samples": len(speed.ref_ms)},
            "setup_problems": setup_problems,
            "ops": len(untraced),
            "failed_ops": failed,
            "fail_ratio": failed / len(untraced),
            "failures_by_kind": failure_counts(untraced),
        }
        records = untraced
        tracer = Tracer() if trace else None
        defects = workload.known_defects(seed, tracer)
        if defects is not None:
            defective = sum(1 for kinds in defects if kinds)
            report["known_defects"] = {
                "items": len(defects),
                "failed": defective,
                "fail_ratio": defective / len(defects),
                "by_kind": dict(sorted(Counter(k for kinds in defects for k in kinds).items())),
            }
        if trace:
            # Replays the untraced ops in order, for the same nominal time.
            traced = closed_loop(workload, [r.op for r in untraced], seconds, speed, tracer)
            workload.probe(tracer)
            scale = statistics.median(r.ms / r.raw_ms for r in traced)
            units = dict(PER_LAYER)
            metrics = {name: 0.0 for name in units}
            for name, value in workload.layer_metrics(tracer, len(traced)).items():
                metrics[name] = value * scale if units[name] == "ms" else value
            base = sum(r.ms for r in untraced[: len(traced)])
            metrics["trace.overhead_pct"] = 100.0 * (sum(r.ms for r in traced) / base - 1.0)
            report["traced_failures_by_kind"] = failure_counts(traced)
            records = untraced + traced
        else:
            times = [r.ms for r in untraced]
            raw = [r.raw_ms for r in untraced]
            report["op_tail_ms"] = tail(times)
            report["raw"] = {
                "setup_s": statistics.median(t for _, t in setups),
                "ops_per_s": 1000.0 * len(raw) / sum(raw),
                "op_p50_ms": statistics.median(raw),
                "op_tail_ms": tail(raw)["value"],
            }
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "ops_per_s": 1000.0 * len(times) / sum(times),
                "op_p50_ms": statistics.median(times),
                "op_tail_ms": report["op_tail_ms"]["value"],
                "peak_rss_mb": peak_rss_mb(),
            }
            units = dict(END_TO_END)
        wrong = any(k in WRONG_KINDS for r in records for k in r.kinds)
        result = {
            "correct": not setup_problems and not wrong,
            "attempted": len(untraced),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        return report, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir_root.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
