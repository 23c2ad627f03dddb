"""The four benchmark workloads and the per-layer probes of the traced run.

Every workload draws its inputs from the seed, times only calls into the
program, and checks each result against ``oracles`` outside the timed region.
A check returns the failure kinds of one op (empty when it passed):

* ``exception.<Type>``  the program raised;
* ``numeric_false_fail`` the numeric tensor route rejected an identity the
  oracle says holds;
* ``wrong_verdict``      an exact verdict (identity, cuspidality, CLI exit 1)
  contradicts the oracle;
* ``wrong_result``       an output value differs from the oracle.

The last two mean the program answered wrongly; the benchmark then reports
``correct: false``.  The timed ops of every workload are ones the program
answers without failing; the known defects (numeric-route false failures,
overflow in building a lift input) are counted by ``Verify.known_defects``
on a fixed seeded draw, outside the timed ops.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracles

WRONG_KINDS = ("wrong_verdict", "wrong_result")
LIFT_H, LIFT_G = "Delta.12.1", "SK.14.2"
LIFT_WEIGHT = 3 * 14 - 6
SUBPROCESS_TIMEOUT_S = 60


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, ``SMOKE`` the self-test."""

    fixture_bounds: tuple[int, int] = (1800, 2000)
    fixture_pins: tuple[int, ...] = (19, 200, 1000)
    lvalue_bound: int = 1000
    verify_bound: int = 1000
    #: Rigidity bounds of one cycle.  The 16 solves at hi = 52 sit below only
    #: the three at 64, 72 and 80, so the op at ``op_tail_ms``'s rank (the
    #: 11th slowest) is the middle of a cluster of like ops, not one op.
    verify_his: tuple[int, ...] = (40, 44, 48, *(52,) * 16, 64, 72, 80)
    verify_gap: int = 250
    census_items: int = 400
    cli_bound: int = 200
    setup_reps: int = 7
    probe_reps: int = 5


SMOKE = Sizes(
    fixture_bounds=(60, 70),
    fixture_pins=(19,),
    lvalue_bound=40,
    verify_bound=40,
    verify_his=(20, 22),
    verify_gap=3,
    census_items=20,
    cli_bound=30,
    setup_reps=1,
    probe_reps=1,
)


class Tracer:
    """Per-layer busy time (ms), counts, maxima and samples of one traced phase."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def call(self, name: str, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.busy[name] += (time.perf_counter() - t0) * 1000

    def sample(self, name: str, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.samples[name].append((time.perf_counter() - t0) * 1000)

    def high(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima[name], value)


def timed(tracer: Tracer | None, name: str, fn, *args):
    return fn(*args) if tracer is None else tracer.call(name, fn, *args)


def coeff_bits(coeffs) -> int:
    return max(abs(c).bit_length() for c in coeffs)


class Workload:
    name = ""
    #: Ops the loop completes even after the deadline, so every run covers
    #: the same mandatory part of the input mix.
    min_ops = 0

    def __init__(self, root: Path, workdir: Path, sizes: Sizes) -> None:
        self.root, self.workdir, self.sizes = root, workdir, sizes
        self.fixtures_sha256: str | None = None

    def setup(self) -> None:
        """One repetition of the set-up; timed by the caller."""

    def check_setup(self) -> list[str]:
        """Oracle problems in what the set-up wrote."""
        raise NotImplementedError

    def ops(self, rng):
        raise NotImplementedError

    def call(self, op, tracer: Tracer | None):
        raise NotImplementedError

    def check(self, op, result) -> list[str]:
        raise NotImplementedError

    def probe(self, tracer: Tracer) -> None:
        """Measurements the traced run takes once, after the replayed ops."""

    def known_defects(self, seed: int, tracer: Tracer | None) -> list[list[str]] | None:
        """Failure kinds of each item of a fixed seeded draw over inputs where
        the program is known to fail, or None for a workload without one."""
        return None

    def layer_metrics(self, tracer: Tracer, n_ops: int) -> dict[str, float]:
        raise NotImplementedError

    def _write_setup_fixtures(self, bound: int) -> None:
        from spinlift import modforms

        path = self.workdir / "fixtures.json"
        modforms.write_fixtures(path, bound)
        records = modforms.load_fixtures(path)
        self.h, self.g = records[LIFT_H], records[LIFT_G]
        self.fixture_path = path

    def _check_setup_fixtures(self, bound: int) -> list[str]:
        raw = self.fixture_path.read_bytes()
        self.fixtures_sha256 = oracles.sha256_bytes(raw)
        self.recs = oracles.parse_fixtures(json.loads(raw))
        return oracles.check_fixtures(raw, bound)


def busy_per_op(tracer: Tracer, n_ops: int, *names: str) -> dict[str, float]:
    return {f"{name}.busy_ms": tracer.busy[name] / n_ops for name in names}


# ----------------------------------------------------------------- fixtures


class Fixtures(Workload):
    """Each op writes fixtures at a drawn prime bound B (order B + 1)."""

    name = "fixtures"

    def setup(self) -> None:
        from spinlift import modforms

        for bound in self.sizes.fixture_pins:
            modforms.write_fixtures(self.workdir / f"pin{bound}.json", bound)

    def check_setup(self) -> list[str]:
        problems = []
        for bound in self.sizes.fixture_pins:
            raw = (self.workdir / f"pin{bound}.json").read_bytes()
            problems += oracles.check_fixtures(raw, bound)
            self.fixtures_sha256 = oracles.sha256_bytes(raw)
        return problems

    def ops(self, rng):
        lo, hi = self.sizes.fixture_bounds
        while True:
            yield rng.randint(lo, hi)

    def call(self, bound, tracer):
        from spinlift import modforms

        path = self.workdir / "fixtures.json"
        modforms.write_fixtures(path, bound, bound + 1)
        if tracer is not None:
            order = bound + 1
            tracer.call("modforms.fixture_records", modforms.fixture_records, bound, order)
            dl = tracer.call("modforms.delta", modforms.delta, order)
            e14 = tracer.call("modforms.eisenstein", modforms.eisenstein, 14, order)
            g26 = tracer.call("modforms.qseries_mul", dl.__mul__, e14)
            tracer.high("modforms.max_coeff_bits", max(coeff_bits(s.coeffs) for s in (dl, e14, g26)))
        return path

    def check(self, bound, path):
        return ["wrong_result"] if oracles.check_fixtures(path.read_bytes(), bound, bound + 1) else []

    def layer_metrics(self, tracer, n_ops):
        return {
            **busy_per_op(tracer, n_ops, "modforms.fixture_records", "modforms.delta", "modforms.eisenstein", "modforms.qseries_mul"),
            "modforms.max_coeff_bits": tracer.maxima["modforms.max_coeff_bits"],
        }


# ----------------------------------------------------------------- lvalue


class LValue(Workload):
    """Each op is one truncated Euler product of the Delta x SK.14.2 lift.

    Ops come in pairs, one real integer s (exact-Fraction evaluation) and one
    complex s (mantissa-split evaluation), so every run is half of each.
    """

    name = "lvalue"

    def setup(self) -> None:
        self._write_setup_fixtures(self.sizes.lvalue_bound)

    def check_setup(self) -> list[str]:
        problems = self._check_setup_fixtures(self.sizes.lvalue_bound)
        self.expected = {
            p: oracles.lift_l8_from_fixtures(self.recs, p) for p in oracles.primes_upto(self.sizes.lvalue_bound)
        }
        return problems

    def ops(self, rng):
        while True:
            pair = [rng.randint(21, 30), complex(rng.uniform(20.5, 30.0), rng.uniform(-50.0, 50.0))]
            rng.shuffle(pair)
            yield from pair

    def call(self, s, tracer):
        from spinlift import analytic, lifting, localfactors

        h, g = self.h, self.g
        factors = []

        def provider(p):
            gsp4 = localfactors.gsp4_spin_factor_exact(g.weight, p, g.lambda_p(p), g.lambda_p2(p))
            f = timed(tracer, "lifting.lifted_spin_factor_exact", lifting.lifted_spin_factor_exact, h.weight, h.lambda_p(p), gsp4)
            factors.append(f)
            return f

        result = timed(
            tracer, "analytic.truncated_euler_product", analytic.truncated_euler_product,
            provider, s, self.sizes.lvalue_bound, LIFT_WEIGHT,
        )
        if tracer is not None:
            tracer.call("localfactors.evaluate", lambda: [localfactors.evaluate(f, s) for f in factors])
            tracer.high("localfactors.max_coeff_bits", max(coeff_bits(f.coeffs) for f in factors))
            tracer.counts["analytic.violations"] += len(result.violations)
        return result, factors

    def check(self, s, out):
        result, factors = out
        got = {f.p: list(f.coeffs) for f in factors}
        if got != self.expected:
            return ["wrong_result"]
        # The lift is not tempered: the p^13-shifted Delta roots have modulus
        # p^18.5, so any valid root bound is at least 18.5.
        if result.root_exponent < 18.5 - 1e-6 or not (result.abscissa < complex(s).real and result.tail_bound >= 0):
            return ["wrong_result"]
        if not oracles.close(result.value, oracles.euler_product(self.expected, s)):
            return ["wrong_result"]
        return []

    def layer_metrics(self, tracer, n_ops):
        euler = tracer.busy["analytic.truncated_euler_product"]
        provider = tracer.busy["lifting.lifted_spin_factor_exact"]
        return {
            **busy_per_op(tracer, n_ops, "lifting.lifted_spin_factor_exact", "localfactors.evaluate"),
            "localfactors.max_coeff_bits": tracer.maxima["localfactors.max_coeff_bits"],
            "analytic.truncated_euler_product.self_ms": (euler - provider) / n_ops,
            "analytic.violations.count": tracer.counts["analytic.violations"],
        }


# ----------------------------------------------------------------- verify


class Verify(Workload):
    """Each op verifies the lift at one input: a (k, p) pair, synthetic or
    from the fixtures, or a weight-rigidity solve.

    A pair op runs the exact two-route identity and ``cuspidality_decision``.
    Synthetic pairs are even k in 6..60 and primes p up to the bound whose
    Satake data fit a float (4 p^(2k-3) < 2^1024, 95% of the grid).  Ops
    run in cycles: each rigidity bound in ``verify_his`` once, in seeded
    order, one after each ``verify_gap`` pairs.  Every run completes the
    first cycle, so the slow tail has the same composition in every run, and
    the share of rigidity ops stays the same however many ops a run gets
    through.

    The known defects are not timed ops: ``known_defects`` runs the numeric
    route on ``census_items`` pairs drawn from the whole grid, half synthetic
    and half from the fixtures, where a synthetic pair beyond float range
    raises ``OverflowError`` and many others get a numeric false failure.
    """

    name = "verify"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.min_ops = len(self.sizes.verify_his) * (self.sizes.verify_gap + 1)

    def setup(self) -> None:
        self._write_setup_fixtures(self.sizes.verify_bound)

    def check_setup(self) -> list[str]:
        self.primes = oracles.primes_upto(self.sizes.verify_bound)
        self.grid = [(k, p) for k in range(6, 61, 2) for p in self.primes]
        self.representable = [(k, p) for k, p in self.grid if oracles.fits_float(4 * p ** (2 * k - 3))]
        return self._check_setup_fixtures(self.sizes.verify_bound)

    def ops(self, rng):
        def pair():
            if rng.random() < 0.5:
                return ("synthetic", *rng.choice(self.representable))
            return ("fixture", 14, rng.choice(self.primes))

        while True:
            his = list(self.sizes.verify_his)
            rng.shuffle(his)
            for hi in his:
                for _ in range(self.sizes.verify_gap):
                    yield pair()
                yield ("rigidity", hi)

    def _lift_input(self, kind, k, p):
        from spinlift import lifting

        if kind == "synthetic":
            return lifting.synthetic_lift_input(k, p)
        return lifting.lift_input_from_records(self.h, self.g, p)

    def call(self, op, tracer):
        from spinlift import cuspidality, hodge, lifting, localfactors

        if op[0] == "rigidity":
            if tracer is None:
                return hodge.weight_solver(8, op[1])
            # Count the (k, l, K) comparisons through the solver's calls to
            # hodge_gsp6, restored before returning.
            original = hodge.hodge_gsp6

            def counted(big_k):
                tracer.counts["hodge.triples_checked"] += 1
                return original(big_k)

            hodge.hodge_gsp6 = counted
            try:
                return tracer.call("hodge.weight_solver", hodge.weight_solver, 8, op[1])
            finally:
                hodge.hodge_gsp6 = original
        inp = self._lift_input(*op)
        exact = timed(tracer, "lifting.verify_tensor_identity.exact", lifting.verify_tensor_identity, inp, True)
        verdict = timed(tracer, "cuspidality.cuspidality_decision", cuspidality.cuspidality_decision, inp)
        if tracer is not None:
            p = op[2]
            (k1, a_p), (k2, lam, lam2) = inp.gl2_data, inp.gsp4_data
            gl2 = localfactors.gl2_factor_exact(k1, p, a_p)
            gsp4 = localfactors.gsp4_spin_factor_exact(k2, p, lam, lam2)
            tracer.call("localfactors.tensor_local_factor", localfactors.tensor_local_factor, gl2, gsp4)
            tracer.call("lifting.lifted_spin_factor_exact", lifting.lifted_spin_factor_exact, k1, a_p, gsp4)
            tracer.high("localfactors.max_coeff_bits", coeff_bits(exact.lift_coeffs))
            tracer.counts["cuspidality.not_cuspidal"] += not verdict.cuspidal
        return exact, verdict

    def check(self, op, out):
        if op[0] == "rigidity":
            return [] if sorted(out) == oracles.weight_family(8, op[1]) else ["wrong_result"]
        exact, verdict = out
        kinds = []
        if not exact.ok:
            kinds.append("wrong_verdict")
        elif exact.lift_coeffs != exact.tensor_coeffs or list(exact.lift_coeffs) != self._expected(*op):
            kinds.append("wrong_result")
        if not verdict.cuspidal:
            kinds.append("wrong_verdict")
        return kinds

    def _expected(self, kind, k, p) -> list[int]:
        if kind == "synthetic":
            return oracles.lift_l8(k, p, 0, 0)
        return oracles.lift_l8_from_fixtures(self.recs, p)

    def known_defects(self, seed, tracer):
        """The numeric route on a seeded draw over the whole grid.  The
        identity holds at every item, so a rejection is a false failure."""
        from spinlift import lifting

        rng = random.Random(f"known-defects:{seed}")
        kinds = []
        for i in range(self.sizes.census_items):
            op = ("synthetic", *rng.choice(self.grid)) if i % 2 == 0 else ("fixture", 14, rng.choice(self.primes))
            try:
                inp = self._lift_input(*op)
                report = timed(tracer, "lifting.verify_tensor_identity.numeric", lifting.verify_tensor_identity, inp, False)
            except Exception as exc:  # a known defect is counted, never raised
                kinds.append([f"exception.{type(exc).__name__}"])
            else:
                kinds.append([] if report.ok else ["numeric_false_fail"])
        if tracer is not None:
            for kind in (k for item in kinds for k in item):
                tracer.counts[kind] += 1
        return kinds

    def layer_metrics(self, tracer, n_ops):
        return {
            **busy_per_op(
                tracer, n_ops,
                "lifting.lifted_spin_factor_exact",
                "lifting.verify_tensor_identity.exact",
                "localfactors.tensor_local_factor",
                "cuspidality.cuspidality_decision",
                "hodge.weight_solver",
            ),
            # Per item of the known-defect draw, which is where the numeric route runs.
            **busy_per_op(tracer, self.sizes.census_items, "lifting.verify_tensor_identity.numeric"),
            "lifting.numeric_false_fail.count": tracer.counts["numeric_false_fail"],
            "lifting.overflow.count": tracer.counts["exception.OverflowError"],
            "localfactors.max_coeff_bits": tracer.maxima["localfactors.max_coeff_bits"],
            "cuspidality.not_cuspidal.count": tracer.counts["cuspidality.not_cuspidal"],
            "hodge.triples_checked.count": tracer.counts["hodge.triples_checked"],
        }


# ----------------------------------------------------------------- cli

CLI_COMMANDS = (
    "verify-miyawaki", "lift-verify", "cuspidality", "critical", "gamma-compare-rs",
    "hodge-solve", "lvalue", "local-factor", "satake", "report", "fixtures-gen",
)


class Cli(Workload):
    """Each op is one ``python -m spinlift.cli`` subprocess.

    Commands run in blocks, each a seeded permutation of all of
    ``CLI_COMMANDS``, so every run has the same command mix.
    """

    name = "cli"
    min_ops = len(CLI_COMMANDS)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        self.fixture_path = self.workdir / "fixtures.json"
        self.gen_path = self.workdir / "gen.json"

    def _run(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=self.workdir, env=self.env,
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )

    def setup(self) -> None:
        bound = str(self.sizes.cli_bound)
        proc = self._run(["-m", "spinlift.cli", "--fixtures", str(self.fixture_path), "fixtures", "gen", "--prime-bound", bound])
        if proc.returncode:
            raise RuntimeError(f"cli set-up failed: {proc.stderr}")

    def check_setup(self) -> list[str]:
        raw = self.fixture_path.read_bytes()
        self.fixtures_sha256 = oracles.sha256_bytes(raw)
        self.recs = oracles.parse_fixtures(json.loads(raw))
        self.primes = oracles.primes_upto(self.sizes.cli_bound)
        return oracles.check_fixtures(raw, self.sizes.cli_bound)

    def ops(self, rng):
        weights = range(12, 61, 2)
        while True:
            block = list(CLI_COMMANDS)
            rng.shuffle(block)
            for name in block:
                p = rng.choice(self.primes)
                k = rng.choice(weights)
                label = rng.choice(oracles.FIXTURE_LABELS)
                args = {
                    "verify-miyawaki": ["verify", "miyawaki"],
                    "lift-verify": ["lift", "--h", LIFT_H, "--g", LIFT_G, "--p", p, "--verify"],
                    "cuspidality": ["cuspidality", "--k", rng.randrange(12, 41, 2), "--p", p],
                    "critical": ["critical", "--k", k],
                    "gamma-compare-rs": ["gamma", "--k", k, "--compare-rs"],
                    "hodge-solve": ["hodge", "solve", "--min", 8, "--max", rng.randrange(20, 41, 2)],
                    "lvalue": ["lvalue", "--h", LIFT_H, "--g", LIFT_G, "--s", round(rng.uniform(20.5, 30.0), 3), "--prime-bound", 19],
                    "local-factor": ["local-factor", "--label", label, "--p", p],
                    "satake": ["satake", "--label", label, "--p", p],
                    "report": ["report", "--subject", "critical", "--k", k],
                    "fixtures-gen": ["fixtures", "gen", "--prime-bound", rng.randint(19, 100)],
                }[name]
                yield name, [str(a) for a in args]

    def _argv(self, name: str, args: list[str]) -> list[str]:
        path = self.gen_path if name == "fixtures-gen" else self.fixture_path
        return ["--fixtures", str(path), *args]

    def call(self, op, tracer):
        name, args = op
        argv = self._argv(name, args)
        if tracer is None:
            return self._run(["-m", "spinlift.cli", *argv])
        from spinlift import cli

        proc = tracer.sample(f"cli.{name}", self._run, ["-m", "spinlift.cli", *argv])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tracer.sample(f"cli.in_process.{name}", cli.main, argv)
        in_process = subprocess.CompletedProcess(argv, code, out.getvalue(), "")
        return proc, in_process

    def check(self, op, result):
        if isinstance(result, tuple):
            return sorted(set(self._check_one(op, result[0]) + self._check_one(op, result[1])))
        return self._check_one(op, result)

    def _check_one(self, op, proc) -> list[str]:
        name, args = op
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            if "Traceback" in proc.stderr and lines:
                return [f"exception.{lines[-1].split(':')[0]}"]
            return ["wrong_verdict"] if proc.returncode == 1 else [f"exit.{proc.returncode}"]
        try:
            out = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return ["wrong_result"]
        return [] if _cli_output_ok(name, args, out, self.recs, self.gen_path) else ["wrong_result"]

    def probe(self, tracer: Tracer) -> None:
        """Bare-interpreter and import-only subprocesses."""
        for _ in range(self.sizes.probe_reps):
            tracer.sample("cli.interpreter", self._run, ["-c", "pass"])
            tracer.sample("cli.import", self._run, ["-c", "import spinlift.cli"])

    def layer_metrics(self, tracer, n_ops):
        med = {name: statistics.median(v) for name, v in tracer.samples.items()}
        metrics = {
            "cli.interpreter_ms": med["cli.interpreter"],
            "cli.import_ms": med["cli.import"] - med["cli.interpreter"],
        }
        for name in CLI_COMMANDS:
            metrics[f"cli.{name}.ms"] = med.get(f"cli.{name}", 0.0)
            metrics[f"cli.in_process.{name}.ms"] = med.get(f"cli.in_process.{name}", 0.0)
        return metrics


def _cli_output_ok(name: str, args: list[str], out: dict, recs, gen_path: Path) -> bool:
    """Oracle for one CLI payload; args are the drawn command arguments."""
    opt = {args[i]: args[i + 1] for i in range(len(args) - 1) if args[i].startswith("--")}
    if name == "verify-miyawaki":
        return out["verdict"] == "pass" and all(c["pass"] for c in out["checks"])
    if name == "lift-verify":
        p = int(opt["--p"])
        tau, lam = recs[LIFT_H][p][0], recs[LIFT_G][p][0]
        return (
            [int(c) for c in out["spin_factor"]["coeffs"]] == oracles.lift_l8_from_fixtures(recs, p)
            and out["tensor_identity"]["ok"]
            and out["eigenvalue_product"] == {"value": str(tau * lam), "matches_lift": True}
        )
    if name == "cuspidality":
        return out["cuspidal"] is True and out["k"] == int(opt["--k"])
    if name in ("critical", "report"):
        k = int(opt["--k"])
        payload = out["payload"] if name == "report" else out
        return payload["critical_values"] == oracles.critical_values(k) and payload["center"] == 3 * k - 5
    if name == "gamma-compare-rs":
        k = int(opt["--k"])
        spin = out["spin3"]
        return (
            spin["shifts"] == oracles.gamma_shifts(k) and spin["center"] == 3 * k - 5
            and out["shifts_match"] and out["centers_match"]
        )
    if name == "hodge-solve":
        expected = oracles.weight_family(int(opt["--min"]), int(opt["--max"]))
        return out["solutions"] == [list(t) for t in expected]
    if name == "lvalue":
        s = float(opt["--s"])
        polys = {p: oracles.lift_l8_from_fixtures(recs, p) for p in oracles.primes_upto(int(opt["--prime-bound"]))}
        value = complex(*out["value"])
        return oracles.close(value, oracles.euler_product(polys, s))
    if name in ("local-factor", "satake"):
        p, label = int(opt["--p"]), opt["--label"]
        a_f = recs["g26.26.1"][p][0]
        if label == LIFT_G:
            spin = oracles.sk_spin4(14, p, a_f)
        else:
            k = 12 if label == LIFT_H else 26
            spin = oracles.gl2_poly(k, p, recs[label][p][0])
        if name == "local-factor":
            return [int(c) for c in out["factor"]["coeffs"]] == spin
        return out["normalized"] is True and oracles.close(complex(*out["hecke_eigenvalue"]), -spin[1])
    if name == "fixtures-gen":
        return not oracles.check_fixtures(gen_path.read_bytes(), int(opt["--prime-bound"]))
    raise ValueError(f"no oracle for command {name!r}")


WORKLOADS = {w.name: w for w in (Fixtures, LValue, Verify, Cli)}
