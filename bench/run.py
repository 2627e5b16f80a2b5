"""Benchmark hpiso end to end, or per layer with ``--trace 1``.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_session, orbit_depth, decide_batch, boundary_grid (see
README.md); ``--workload all`` runs the four in turn.  One client runs a closed loop: each operation starts after the
previous one finished; its check runs after its timer stops.  Operations
repeat in whole rounds until ``--seconds`` of operation time have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the loop
once untraced and once with spans around every public hpiso function, then
prints the per-layer metrics and writes the spans under
``.bench_build/bench/``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import importlib.metadata
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "bench"
WORKLOADS = ("cli_session", "orbit_depth", "decide_batch", "boundary_grid")
SUBCOMMANDS = ("classify", "compose", "iterate", "orbit", "crownover", "equiv",
               "commutant", "verify", "construct", "rho")
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
#: set-ups in fresh processes after the loop, for the setup_s median
SETUP_REPEATS = 5
#: fastest time of ``reference_loop`` on the machine the benchmark was written
#: on (Python 3.11.7, 2-vCPU VM); timings are reported at that machine speed
REFERENCE_S = 1.08e-3
#: fastest time of ``reference_numpy`` seen in a boundary_grid run on that machine
REFERENCE_NUMPY_S = 1.05e-3
#: operation time between two timings of the reference loop
REFERENCE_EVERY_S = 0.5
#: ... when each operation is paired with the timing just before it
REFERENCE_PAIRED_EVERY_S = 0.1
#: roughly the time of ``time_reference_process`` on that machine (0.22-0.36 s seen)
REFERENCE_PROCESS_S = 0.25
#: operation time between two timings of the reference process
REFERENCE_PROCESS_EVERY_S = 2.0


def quantile(values, q):
    """Linear interpolation between the closest ranks (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(values, threshold):
    """Samples strictly above ``threshold``: the support of a tail percentile."""
    return sum(1 for v in values if v > threshold)


def reference_loop():
    """Fixed pure-Python work (arithmetic, float repr, string joins), timed to track the machine's speed."""
    s, x, parts = 0, 0.1, []
    for i in range(1_500):
        s += i * i % 7
        x = x * 1.0000001 + 1e-9
        parts.append(repr(x))
    return s + len(",".join(parts))


@functools.cache
def _reference_grid():
    import numpy as np

    return 0.5 * np.exp(2j * np.pi * np.arange(4096) / 4096)


def reference_numpy():
    """Fixed numpy work: FFTs and elementwise complex products on a 4096-point grid.

    Its 64 KiB arrays stay below glibc's default mmap threshold, so the
    allocator's state, which the workload sets, does not change its time.
    """
    import numpy as np

    grid = y = _reference_grid()
    for _ in range(8):
        y = np.fft.ifft(np.fft.fft(y) * grid) + grid * np.conj(y)
    return y


def best_of_three(work):
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best


def time_reference():
    return best_of_three(reference_loop)


def time_reference_numpy():
    return best_of_three(reference_numpy)


def time_reference_process():
    """Wall time of a fresh interpreter importing numpy and jsonschema: a CLI request without hpiso."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, jsonschema"], cwd=ROOT, env=child_env(),
                   capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t0


def reference_for(workload):
    """(timer, its nominal time, operation time between timings, paired), matched to the workload.

    ``cli_session`` spends its time starting processes and importing, which
    slow phases of the machine hit differently from in-process Python, so its
    reference is a process.  ``boundary_grid`` spends its time in numpy array
    passes, which slow phases hit less than interpreted Python, so its
    reference is numpy work.  ``decide_batch`` and ``boundary_grid`` repeat
    mostly short operations 14 to 55 times per run, so each instance's
    fastest repeat and the fastest reference timing both fall in moments free
    of contention.  ``cli_session`` and ``orbit_depth`` make only 4 to 13
    repeats of operations that mostly last 50 to 400 ms, which often all meet
    contention; they are ``paired``: each repeat is divided by the reference
    timed just before it, and the median of those ratios is taken.
    """
    if workload == "cli_session":
        return time_reference_process, REFERENCE_PROCESS_S, REFERENCE_PROCESS_EVERY_S, True
    if workload == "orbit_depth":
        return time_reference, REFERENCE_S, REFERENCE_PAIRED_EVERY_S, True
    if workload == "boundary_grid":
        return time_reference_numpy, REFERENCE_NUMPY_S, REFERENCE_EVERY_S, False
    return time_reference, REFERENCE_S, REFERENCE_EVERY_S, False


def child_env():
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def prepare(workload, seed):
    """Imports and input generation; returns (ops, cli runner or None)."""
    import random

    import workloads as wl

    OUT.mkdir(parents=True, exist_ok=True)
    if workload == "cli_session":
        cli = wl.Cli(ROOT, child_env(), OUT)
        return wl.cli_session(random.Random(seed), cli), cli
    return wl.BUILDERS[workload](random.Random(seed)), None


class Loop:
    """Outcome of one closed loop: operation ``i`` of round ``j`` is ``latency[j * len(ops) + i]``."""

    def __init__(self, ops, nominal, paired):
        self.ops = ops
        self.nominal = nominal  # the reference timer's nominal time
        self.paired = paired  # see reference_for
        self.latency = []  # seconds
        self.ratio = []  # each latency over the reference timing just before it
        self.reference = []  # seconds, timings of the reference during the run
        self.failures = []
        self.busy = 0.0
        self.rounds = 0
        self.pairs = 0  # pairs equivalent by construction
        self.found = 0  # ... for which a witness came back

    @property
    def attempted(self):
        return len(self.latency)

    @property
    def slowdown(self):
        """The reference's fastest (paired: median) time over its nominal time."""
        pick = statistics.median if self.paired else min
        return pick(self.reference) / self.nominal

    def costs(self):
        """Each operation instance's cost in seconds at reference speed.

        Repeats of one instance do identical work, so the spread between them
        is the machine's: on a shared VM, phases of seconds to minutes run at
        up to half speed.  The cost is the fastest repeat divided by
        ``slowdown`` or, in a paired run, the median of the repeats' ratios to
        the reference times the reference's nominal time.
        """
        n = len(self.ops)
        if self.paired:
            return [statistics.median(self.ratio[i::n]) * self.nominal for i in range(n)]
        return [min(self.latency[i::n]) / self.slowdown for i in range(n)]

    @property
    def ops_per_s(self):
        """Operations per second at each instance's own cost, times the share that passed."""
        passed = 1.0 - len(self.failures) / self.attempted
        return passed * len(self.ops) / sum(self.costs())


def measure(ops, seconds, reference, tracer=None):
    from workloads import judge

    timer, nominal, every, paired = reference
    loop = Loop(ops, nominal, paired)
    op_id = 0
    next_reference = 0.0
    while loop.busy < seconds:
        for op in ops:
            if loop.busy >= next_reference:
                loop.reference.append(timer())
                next_reference = loop.busy + every
            t0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # the loop records the failure and goes on
                out, err = None, exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op(op_id)
            why = judge(op, out, err)
            if tracer is not None:
                tracer.end_op(-1)  # spans of the check belong to no operation
            op_id += 1
            loop.busy += dt
            loop.latency.append(dt)
            loop.ratio.append(dt / loop.reference[-1])
            if why is not None:
                loop.failures.append(why)
            if op.found is not None:
                loop.pairs += 1
                loop.found += bool(err is None and op.found(out))
        loop.rounds += 1
    return loop


def setup_median(args):
    """Set-up time at reference speed, from set-ups in fresh processes.

    Each set-up is divided by a reference process timed just before it, the
    nominal ``REFERENCE_PROCESS_S`` restores the unit, and the median of
    ``SETUP_REPEATS`` such figures is reported.  A set-up is mostly imports,
    as is the reference process, so the ratio keeps little of the machine's
    slow phases.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    ratios = []
    for _ in range(SETUP_REPEATS):
        reference = time_reference_process()
        res = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=150)
        if res.returncode != 0:
            raise RuntimeError(f"set-up process failed: {res.stderr.decode()[-500:]}")
        ratios.append(json.loads(res.stdout.decode().splitlines()[-1])["setup_s"] / reference)
    return statistics.median(ratios) * REFERENCE_PROCESS_S


def machine():
    versions = {pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "jsonschema")}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **versions,
        "thread_caps": THREAD_CAPS,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop, setup_s, peak_rss_kb):
    ms = [x * 1e3 for x in loop.costs()]
    every = [x * 1e3 for x in loop.latency]
    p50, p90 = quantile(ms, 0.5), quantile(ms, 0.9)
    how = "each repeat is divided by the reference timed before it" if loop.paired else \
        "timings below are divided by that factor"
    print(f"machine speed: the reference's {'median' if loop.paired else 'fastest'} time was {loop.slowdown:.3f} x "
          f"its nominal time ({len(loop.reference)} timings); {how}; raw all-repeat figures in brackets")
    print(f"setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS} fresh set-ups, each at reference speed)")
    print(f"latency_p50_ms = {p50:.4f} ms (n={len(ms)} instances; raw, all {len(every)} repeats: "
          f"{quantile(every, 0.5):.4f})")
    print(f"peak_rss_mb = {peak_rss_kb / 1024:.4f} MB")
    print("printed, not in BENCHMARK.json (run-to-run spread too wide, or 0 on a correct run):")
    print(f"  ops_per_s = {loop.ops_per_s:.4f} 1/s ({len(loop.ops)} operation instances x {loop.rounds} rounds, "
          f"{loop.busy:.2f} s of operation time; raw, all repeats: {(loop.attempted - len(loop.failures)) / loop.busy:.4f})")
    print(f"  latency_p90_ms = {p90:.4f} ms (n={len(ms)} instances, {beyond(ms, p90)} beyond it; "
          f"raw, all {len(every)} repeats: {quantile(every, 0.9):.4f}, {beyond(every, quantile(every, 0.9))} beyond)")
    print(f"  failed_ratio = {len(loop.failures) / loop.attempted:.4f} ({len(loop.failures)} of {loop.attempted})")
    return {
        "setup_s": metric(setup_s, "s"),
        "latency_p50_ms": metric(p50, "ms"),
        "peak_rss_mb": metric(peak_rss_kb / 1024, "MB"),
    }


def per_layer(stats, traced, plain, cli):
    """Per-layer metrics of the traced loop, per round of the workload.

    Counts and self times are totals divided by the number of rounds; 0 means
    the workload never reaches that layer.
    """
    out = {}
    rounds = traced.rounds

    def put(name, value, unit):
        out[name] = metric(value, unit)

    def us_quantile(name, q):
        return quantile(stats.durations[name], q)

    children = cli.child if cli is not None else []
    for key in ("interpreter_ms", "import_ms", "main_ms"):
        put(f"cli.{key}", statistics.median([c[key] for c in children]) if children else 0.0, "ms")
    costs = list(zip(traced.ops, traced.costs()))
    for sub in SUBCOMMANDS:
        put(f"cli.{sub}.p50_ms", quantile([t * 1e3 for op, t in costs if op.kind == f"cli.{sub}"], 0.5), "ms")

    for layer in ("serialize", "blaschke", "isometries", "moebius", "hardy"):
        put(f"{layer}.calls", stats.layer_calls(layer) / rounds, "count")
        put(f"{layer}.self_ms", stats.layer_self_s(layer) * 1e3 / rounds, "ms")
    put("serialize.validate_calls", stats.calls.get("serialize.validate", 0) / rounds, "count")
    put("serialize.validates_per_parse",
        stats.nested_validates / stats.parses if stats.parses else 0.0, "ratio")
    put("serialize.spec_from_json.p50_us", us_quantile("serialize.spec_from_json", 0.5), "us")
    put("blaschke.orbit_terms", stats.counters["blaschke.orbit_terms"] / rounds, "count")
    put("blaschke.eval_blaschke.p50_us", us_quantile("blaschke.eval_blaschke", 0.5), "us")
    for name in ("decide_crownover", "construct_nonzero_intersection", "decide_equivalent"):
        put(f"isometries.{name}.p50_us", us_quantile(f"isometries.{name}", 0.5), "us")
    put("isometries.decide_equivalent.p90_us", us_quantile("isometries.decide_equivalent", 0.9), "us")
    put("isometries.moebius_calls_per_decision",
        stats.decision_moebius_calls / stats.decisions if stats.decisions else 0.0, "ratio")
    put("isometries.witness_ratio", traced.found / traced.pairs if traced.pairs else 0.0, "ratio")
    for name in ("compose", "classify", "iterate", "find_conjugator"):
        put(f"moebius.{name}.p50_us", us_quantile(f"moebius.{name}", 0.5), "us")
    put("hardy.grid_factor_evals", stats.counters["hardy.grid_factor_evals"] / rounds, "count")
    put("hardy.verify_isometry.p50_us", us_quantile("hardy.verify_isometry", 0.5), "us")
    put("trace.overhead_ratio", traced.ops_per_s / plain.ops_per_s, "ratio")
    return out


def print_instances(loop):
    print(f"untraced cost of each operation instance ({'median paired' if loop.paired else 'fastest'} repeat; "
          f"machine slowdown {loop.slowdown:.3f}, "
          "raw = reference speed x slowdown):")
    for op, t in zip(loop.ops, loop.costs()):
        print(f"  {op.kind:32} {op.note:34} {t * 1e3:11.4f} ms  raw {t * 1e3 * loop.slowdown:11.4f} ms")


def print_split(stats, traced, cli):
    """Share of the traced loop's operation time spent in each layer's own code."""
    shares = {layer: stats.layer_self_s(layer) / traced.busy
              for layer in ("cli", "serialize", "blaschke", "isometries", "moebius", "hardy")}
    if cli is not None and cli.child:
        wall = statistics.median(traced.latency) * 1e3
        med = {k: statistics.median([c[k] for c in cli.child]) for k in ("interpreter_ms", "import_ms", "main_ms")}
        print(f"cli request split (median of {wall:.1f} ms): " +
              ", ".join(f"{k} {v:.1f} ({v / wall:.0%})" for k, v in med.items()))
        main_s = sum(c["main_ms"] / 1e3 for c in cli.child)
        shares = {layer: share * traced.busy / main_s for layer, share in shares.items()}
        print("share of main() time in each layer's own code:")
    else:
        print("share of operation time in each layer's own code:")
    print("  " + ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items()))
    isc = stats.self_s.get("isometries.invariant_subspace_check", 0.0) / traced.busy
    if isc:
        print(f"  of which isometries.invariant_subspace_check {isc:.1%}")


def run_all(args):
    """Every workload in turn, each in its own process; one combined result line."""
    results = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            return res.returncode
        results.append((workload, json.loads(res.stdout.splitlines()[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{w}.{name}": m for w, r in results for name, m in r["metrics"].items()},
    }))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for the setup_s median)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hpiso" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no hpiso sources under {SRC}; run from a full checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.update(THREAD_CAPS)  # before numpy is imported
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    ops, cli = prepare(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    import hpiso

    if not Path(hpiso.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"bench: imported hpiso from {hpiso.__file__}, not from {SRC}\n")
        return 2
    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")

    reference = reference_for(args.workload)
    plain = measure(ops, args.seconds, reference)
    peak_rss_kb = cli.peak_rss_kb if cli is not None else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loops = [plain]
    if args.trace:
        from spans import Tracer

        tracer = Tracer().install()
        if cli is not None:
            cli.traced = True
        traced = measure(ops, args.seconds, reference, tracer)
        tracer.uninstall()
        tracer.flush()
        for child in cli.child if cli is not None else []:
            tracer.stats.merge(child["stats"])
        loops.append(traced)
        tracer.write(OUT / f"spans_{args.workload}_{args.seed}.json")
        print(f"traced loop: {traced.attempted} operations, {tracer.n_spans} spans "
              f"({tracer.n_kept} written to {OUT.relative_to(ROOT)})")
        print_instances(plain)
        print_split(tracer.stats, traced, cli)
        metrics = per_layer(tracer.stats, traced, plain, cli)
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = end_to_end(plain, setup_median(args), peak_rss_kb)

    if args.workload == "decide_batch":
        import random

        import workloads as wl

        print(f"known defect, reported and not counted as failed: iterate(phi, 10^6) on {wl.N_PARABOLIC} "
              "parabolic symbols (iterate documents DomainError only within 1e-14 of the circle):")
        for line in wl.parabolic_iterates(random.Random(args.seed)):
            print("  " + line)
    failures = [why for loop in loops for why in loop.failures]
    for why, count in sorted({w: failures.count(w) for w in failures}.items())[:20]:
        print(f"FAILED x{count}: {why}")
    attempted = sum(loop.attempted for loop in loops)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
