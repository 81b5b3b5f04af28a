"""dgalift benchmark: seeded, single-process, closed-loop workloads.

    python3 bench/run.py --workload decide-large --seed 0 --seconds 30 --trace 0

One client calls the program in-process, one operation after another, no
threads.  A workload is a fixed batch of operations generated from
``--seed``; the batch is repeated until ``--seconds`` have passed (at
least once) and every output is checked:

* ``decide-large``: ``dgalift naive`` on Koszul rungs up to rank 32,
  liftable and not; the exact solver and the homotopy-system assembly take nearly all
  the time, no construction runs.
* ``lift-small``: ``dgalift lift --bound 0`` on many rank-4 and rank-8
  rungs plus the README worked example; construction, verification,
  parsing and I/O dominate, the solver is small.
* ``identities``: rounds of the seeded core identity suites over Q and
  F5; pure algebra/module/jop arithmetic, no solver, CLI or I/O.

Checks: exit code and verdict as generated, every verification flag true,
the README example's certificate ``f1 -> -f0``, the same transcript digest
(``verdict`` + ``data``) in every batch, and for the default seed the
digests committed in ``golden.json``.

Every time is scaled to a fixed host speed, measured by a reference kernel
run between operations (see ``REFERENCE_S``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced batches and batches with `tracer.Tracer` installed, and prints
the per-layer metrics.  All timing is ``time.perf_counter`` and
``resource.getrusage`` of this process; no hardware counters or
system-wide tracing are used.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
DEFAULT_SEED = 0
SETUP_REPS = 3  # more set-ups follow, one before each round
WORKLOADS = ("decide-large", "lift-small", "identities")
EXIT_FOR = {"vanishes": 0, "lifted": 0, "inconclusive": 3}


def _import_program():
    """Import ``dgalift`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "dgalift", "__init__.py")):
        raise SystemExit(f"benchmark: no dgalift sources under {SRC}")
    sys.path.insert(0, SRC)
    import dgalift

    if os.path.dirname(os.path.dirname(os.path.abspath(dgalift.__file__))) != SRC:
        raise SystemExit(f"benchmark: dgalift imported from {dgalift.__file__}")


# -- host speed ---------------------------------------------------------------------
#
# On a shared host the same code runs up to 2x slower in spells that last from
# seconds to minutes, and process CPU time swings with it.  So every time is
# taken between runs of a fixed pure-Python reference kernel and scaled to the
# speed at which that kernel takes REFERENCE_S: a time t is reported as
# t * REFERENCE_S / r, r the median kernel time of the runs around it.  On a
# shared 2-vCPU Xeon VM the scaled times of ten seeds spread by at most 0.04
# of their median, the unscaled ones by up to 0.2 in a spell of swings.  The
# kernel does not use the program, so a change to the program moves the
# scaled times in full.

REFERENCE_S = 0.003  # about the kernel's best time on a 2-vCPU Xeon VM


def _reference_kernel():
    """Sparse polynomial products with rational and mod-5 coefficients,
    dict-keyed by exponent tuples; the program's own kind of arithmetic,
    written without it."""
    terms = [((i % 3, i % 5, i % 7), Fraction(i + 1, i % 4 + 1)) for i in range(18)]
    for mod in (None, 5):
        acc: dict = {}
        for ea, ca in terms:
            for eb, cb in terms:
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                c = acc.get(e, 0) + ca * cb
                if mod is not None:
                    c = int(c * c.denominator) % mod
                if c:
                    acc[e] = c
                else:
                    acc.pop(e, None)
    return acc


def reference_seconds() -> float:
    """Time of one reference kernel, with the cycle collector off so that the
    program's heap does not slow it."""
    gc.disable()
    try:
        t = time.perf_counter()
        _reference_kernel()
        return time.perf_counter() - t
    finally:
        gc.enable()


SPEED_WINDOW = 3  # reference runs each side of an operation that set its speed


def at_reference_speed(seconds: list, refs: list) -> list:
    """Scale `seconds[i]`, timed between reference runs `refs[i]` and
    `refs[i + 1]`, by the median of the reference runs around it."""
    w = SPEED_WINDOW
    return [
        dt * REFERENCE_S / statistics.median(refs[max(0, i + 1 - w):i + 1 + w])
        for i, dt in enumerate(seconds)
    ]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- running and checking one operation ----------------------------------------------


def run_cli(op):
    """Run one command in-process; returns (seconds, exit code, stdout)."""
    from dgalift import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t = time.perf_counter()
        rc = cli.main(list(op.argv))
        dt = time.perf_counter() - t
    return dt, rc, out.getvalue()


def check_cli(op, rc, stdout):
    """Digest of the deterministic transcript part, or None on a failure."""
    if rc != EXIT_FOR[op.expect]:
        return None
    try:
        transcript = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    verdict, data = transcript.get("verdict"), transcript.get("data")
    if verdict != op.expect or not isinstance(data, dict):
        return None
    flags = data.get("verification", {})
    if op.expect == "lifted" and not (flags and all(flags.values())):
        return None
    if op.certificate is not None and data.get("certificate") != op.certificate:
        return None
    return digest({"verdict": verdict, "data": data})


def run_identity(op, pools):
    """Run one identity round; returns (seconds, [suite result])."""
    from dgalift import selftest

    t = time.perf_counter()
    results = [
        selftest.run_suite(suite, pool.field, op.seed, op.iters, pool)
        for pool in pools.values()
        for suite in selftest.CORE_IDENTITY_SUITES
    ]
    return time.perf_counter() - t, results


def check_identity(op, results):
    if any(r["failures"] != 0 or r["instances"] != op.iters for r in results):
        return None
    return digest(results)


# -- workloads ------------------------------------------------------------------------


class Workload:
    """A generated batch and the means to run and check it."""

    def __init__(self, name: str, seed: int, workdir: str):
        import gen  # imports dgalift, so only after _import_program()

        self.name, self.seed, self.workdir = name, seed, workdir
        self.gen = gen
        self.ops: list = []
        self.pools: dict = {}

    def setup(self):
        """Generate (and for CLI workloads write) every input; returns seconds."""
        t = time.perf_counter()
        if self.name == "identities":
            from dgalift.randgen import FixturePool

            self.ops = self.gen.identities(self.seed)
            self.pools = {k: FixturePool(f) for k, f in self.gen.FIELDS.items()}
        else:
            shutil.rmtree(self.workdir, ignore_errors=True)
            os.makedirs(self.workdir)
            make = self.gen.decide_large if self.name == "decide-large" else self.gen.lift_small
            self.ops = make(self.seed, self.workdir)
        return time.perf_counter() - t

    def warm_up(self):
        """Finish lazy imports before timing, on one small operation."""
        if self.name == "identities":
            run_identity(self.ops[0], self.pools)
        else:
            run_cli(self.gen.readme_op())

    def timed_setup(self) -> float:
        """Seconds of one `setup`, at reference speed."""
        refs = [reference_seconds()]
        dt = self.setup()
        refs.append(reference_seconds())
        return at_reference_speed([dt], refs)[0]

    def run_batch(self):
        """One pass over the batch: [(op, seconds at reference speed, digest or None)]."""
        results, refs = [], [reference_seconds()]
        for op in self.ops:
            try:
                if self.name == "identities":
                    dt, raw = run_identity(op, self.pools)
                else:
                    dt, rc, stdout = run_cli(op)
                    raw = (rc, stdout)
            except Exception as ex:  # noqa: BLE001 - a crash is a counted failure
                print(f"{op.name}: {type(ex).__name__}: {ex}", file=sys.stderr)
                dt, raw = 0.0, None
            results.append((op, dt, raw))
            refs.append(reference_seconds())
        speeds = at_reference_speed([dt for _, dt, _ in results], refs)
        results = [(op, dt, raw) for (op, _, raw), dt in zip(results, speeds)]
        checked = []
        for op, dt, raw in results:
            if raw is None:
                dig = None
            elif self.name == "identities":
                dig = check_identity(op, raw)
            else:
                dig = check_cli(op, *raw)
            checked.append((op, dt, dig))
        return checked


class Ledger:
    """Per-op outcomes over all batches, against the first batch and golden."""

    def __init__(self, golden):
        self.golden = golden
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0

    def record(self, checked):
        for op, _, dig in checked:
            self.attempted += 1
            want = self.first.setdefault(op.name, dig)
            if self.golden is not None:
                want = self.golden.get(op.name)
            if dig is None or dig != want:
                self.failed += 1
                print(f"FAILED {op.name}", file=sys.stderr)


def load_golden(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["workloads"][workload]


def measure(wl: Workload, seconds: float, ledger: Ledger, setup_times: list, tracer=None):
    """Repeat rounds until `seconds` have passed (at least one round).

    A round is a set-up (its time appended to `setup_times`), one untraced
    batch, and one traced batch when a tracer is given, so that a slow spell
    of the machine hits all of them alike.
    Returns (batches, traced batches, per-layer metrics per traced batch,
    uncorrected seconds of each untraced batch).
    """
    batches, traced, layers, walls = [], [], [], []
    start = time.perf_counter()
    while True:
        setup_times.append(wl.timed_setup())
        t = time.perf_counter()
        checked = wl.run_batch()
        walls.append(time.perf_counter() - t)
        ledger.record(checked)
        batches.append(checked)
        if tracer is not None:
            tracer.reset()
            with tracer:
                checked = wl.run_batch()
            ledger.record(checked)
            traced.append(checked)
            layers.append(tracer.layer_metrics())
        if time.perf_counter() - start >= seconds:
            return batches, traced, layers, walls


def op_seconds(batches) -> dict:
    """Each operation's median time over the batches of a run, by op name."""
    times: dict = {}
    for checked in batches:
        for op, dt, _ in checked:
            times.setdefault(op.name, []).append(dt)
    return {name: statistics.median(dts) for name, dts in times.items()}


def verdict_seconds(batches, verdicts):
    """Time of the operations expected to reach one of `verdicts`."""
    median = op_seconds(batches)
    return sum(median[op.name] for op, _, _ in batches[0] if getattr(op, "expect", None) in verdicts)


def end_to_end(setup_times, batches) -> dict:
    """The batch's time, the sum of its operations' median times, and the
    percentiles of every operation timed in the run."""
    op_ms = [1000.0 * dt for checked in batches for _, dt, _ in checked]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(op_seconds(batches).values()), "s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.p90": (statistics.quantiles(op_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer as tracing

    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    try:
        wl = Workload(workload, seed, workdir)
        setup_times = [wl.timed_setup() for _ in range(SETUP_REPS)]
        wl.warm_up()
        ledger = Ledger(load_golden(workload, seed))
        if not trace:
            batches, _, _, walls = measure(wl, seconds, ledger, setup_times)
            metrics = end_to_end(setup_times, batches)
            n_ops = sum(len(b) for b in batches)
            print(f"# {workload}: {len(batches)} batches, {n_ops} ops timed; uncorrected "
                  f"batch seconds: median {statistics.median(walls):.3f}, "
                  f"min {min(walls):.3f}, max {max(walls):.3f}")
        else:
            batches, traced, layers, _ = measure(
                wl, seconds, ledger, setup_times, tracing.Tracer()
            )
            metrics = {
                # counts repeat exactly in every batch; times are medians
                name: (layers[0][name][0] if unit == "count"
                       else statistics.median(layer[name][0] for layer in layers), unit)
                for name, (_, unit) in layers[0].items()
            }
            metrics["wall_s.vanishes"] = (verdict_seconds(batches, ("vanishes", "lifted")), "s")
            metrics["wall_s.inconclusive"] = (verdict_seconds(batches, ("inconclusive",)), "s")
            metrics["trace.overhead_s"] = (
                sum(op_seconds(traced).values()) - sum(op_seconds(batches).values()),
                "s",
            )
            print(f"# {workload}: {len(batches)} untraced and {len(traced)} traced batches")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fail_frac = ledger.failed / ledger.attempted
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# fail_frac = {fail_frac:.6g} ({ledger.failed} of {ledger.attempted} ops)")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_golden():
    """Record the digests of one batch of every workload for the default seed."""
    seed = DEFAULT_SEED
    doc = {"seed": seed, "workloads": {}}
    for workload in WORKLOADS:
        workdir = os.path.join(ROOT, ".bench_work", f"golden-{os.getpid()}")
        try:
            wl = Workload(workload, seed, workdir)
            wl.setup()
            checked = wl.run_batch()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        bad = [op.name for op, _, dig in checked if dig is None]
        if bad:
            raise SystemExit(f"benchmark: cannot record golden digests, failed: {bad}")
        doc["workloads"][workload] = {op.name: dig for op, _, dig in checked}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help="record golden.json for the default seed instead of measuring",
    )
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    _import_program()
    if args.write_golden:
        write_golden()
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
