#!/usr/bin/env python3
"""fracbern benchmark: one workload per process, a closed loop with one
caller, run from the root of a source checkout.

    python3 perfbench/run.py --workload pointwise-ops --seed 1 \
        --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics, the tracing overhead and the per-module self time of the loop's
spans.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("pointwise-ops", "aux-checks", "lattice-solves")
# Timed seconds of one round on a 2-core Xeon; the number of rounds is
# fixed from --seconds with these, so a seed always runs the same items.
NOMINAL_ROUND_S = {"pointwise-ops": 1.0, "aux-checks": 7.3,
                   "lattice-solves": 11.0}
SETUP_REPEATS = 3
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads():
    """Cap BLAS/OpenMP pools at the usable cores before numpy loads."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    return nproc


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long smoke size for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up time and exit")
    return p.parse_args(argv)


def rounds_for(args, share=1.0):
    return max(1, int(round(share * args.seconds
                            / NOMINAL_ROUND_S[args.workload])))


def setup(args, rounds):
    """Import fracbern from the checkout, build the seeded inputs, and run
    the warm-up items.  Returns (workloads module, plan, seconds)."""
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import fracbern
    if os.path.dirname(os.path.abspath(fracbern.__file__)) != \
            os.path.join(SRC, "fracbern"):
        raise SystemExit("fracbern imported from %s, not from this checkout"
                         % fracbern.__file__)
    import numpy as np
    import tracing
    import workloads
    rng = np.random.default_rng([args.seed, WORKLOAD_NAMES.index(
        args.workload)])
    plan = workloads.WORKLOADS[args.workload](rng, rounds, args.size, OUT)
    for item in plan.warmup:
        result = item.run(tracing.NullTracer())
        item.check(result)
    return workloads, plan, time.perf_counter() - t0


def setup_samples(args):
    """Set-up time of fresh processes: imports are only cold once each."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150)
        if proc.returncode != 0:
            raise SystemExit("set-up child failed:\n" + proc.stderr)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


class LoopStats:
    def __init__(self):
        self.latency = []
        self.kinds = []
        self.failed = 0
        self.wrong = 0
        self.rel_err = []

    def by_kind(self):
        """{kind: [items, median ms]}"""
        out = {}
        for k, t in zip(self.kinds, self.latency):
            out.setdefault(k, []).append(t)
        return {k: [len(v), statistics.median(v) * 1e3]
                for k, v in sorted(out.items())}

    def add(self, kind, seconds, verdict, rel):
        """verdict: True, False (a wrong output), MISS, or None when the
        call raised one of the workloads' FAILURES."""
        self.latency.append(seconds)
        self.kinds.append(kind)
        self.failed += verdict is not True
        self.wrong += verdict is False
        if rel is not None:
            self.rel_err.append(rel)


def run_items(items, tracer, stats, wl, first_id):
    """Time each item's call, then check its result outside the timing."""
    for k, item in enumerate(items):
        tracer.item = first_id + k
        t = time.perf_counter()
        try:
            result = tracer.call("item." + item.kind, item.run, tracer)
            raised = False
        except wl.FAILURES:
            raised = True
        dt = time.perf_counter() - t
        verdict, rel = None, None
        if not raised:
            try:
                verdict, rel = item.check(result)
            except wl.FAILURES:
                verdict = None
        if verdict is not wl.MISS and verdict is not None:
            verdict = bool(verdict)
        stats.add(item.kind, dt, verdict, rel)
    tracer.item = None


def tail(latency):
    """(value, percentile, count): the highest percentile with at least
    TAIL_BEYOND items beyond it; the maximum when there are too few."""
    xs = sorted(latency)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100, n
    return xs[n - TAIL_BEYOND - 1], math.floor(100 * (n - TAIL_BEYOND) / n), n


def machine_record(nproc):
    import numpy as np
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu": cpu, "nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS}}


def emit(name, value, unit, out):
    out[name] = {"value": value, "unit": unit}
    print("metric %-44s %.6g %s" % (name, value, unit))


def end_to_end(args, nproc):
    children = setup_samples(args)
    workloads, plan, own = setup(args, rounds_for(args))
    stats = LoopStats()
    import tracing
    null = tracing.NullTracer()
    first = 0
    for items in plan.rounds:
        run_items(items, null, stats, workloads, first)
        first += len(items)
    n = len(stats.latency)
    value, pct, count = tail(stats.latency)
    record = {"workload": args.workload, "seed": args.seed,
              "rounds": len(plan.rounds), **plan.counts,
              "machine": machine_record(nproc),
              "load": "closed loop, 1 caller, 1 process",
              "tail": {"percentile": pct, "items": count},
              "failed_frac": stats.failed / n, "wrong": stats.wrong,
              "waiting": "none: a single-caller closed loop has no queue",
              "setup_samples_s": children + [own],
              "kinds_items_ms_p50": stats.by_kind()}
    print("record " + json.dumps(record, sort_keys=True))
    print("item_ms_tail is p%d of %d items; failed_frac %.6g (%d of %d)"
          % (pct, count, stats.failed / n, stats.failed, n))
    m = {}
    emit("items_per_s", n / sum(stats.latency), "1/s", m)
    emit("item_ms_p50", statistics.median(stats.latency) * 1e3, "ms", m)
    emit("item_ms_tail", value * 1e3, "ms", m)
    emit("setup_s", statistics.median(children + [own]), "s", m)
    emit("peak_rss_mb",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", m)
    emit("err_digits_p50", statistics.median(
        -math.log10(max(e, 1e-300)) for e in stats.rel_err), "digits", m)
    return [stats], m


def traced(args, nproc):
    # half of the time untraced, half traced, over the same rounds; the
    # side that goes first alternates so warm caches favour neither
    workloads, plan, _ = setup(args, rounds_for(args, 0.5))
    import numpy as np
    import layers
    import tracing
    null, tracer = tracing.NullTracer(), tracing.Tracer()
    plain, spanned = LoopStats(), LoopStats()
    first = 0
    for i, items in enumerate(plan.rounds):
        sides = [(null, plain), (tracer, spanned)]
        for tr, st in (sides if i % 2 == 0 else sides[::-1]):
            run_items(items, tr, st, workloads, first)
            first += len(items)
    rng = np.random.default_rng([args.seed, 99])
    layer, strict_fails = layers.layer_metrics(rng, args.size, OUT)
    strict_fails += tracer.failures.get("QuadratureFailure", 0)

    path = os.path.join(OUT, "spans-%s-%d.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump(tracer.to_json(), fh)
    n_items = len(spanned.latency)
    print("record " + json.dumps({"workload": args.workload,
                                  "seed": args.seed, "spans_file": path,
                                  "machine": machine_record(nproc)},
                                 sort_keys=True))
    for mod, v in sorted(tracer.summary().items()):
        print("self %-14s %10.3f ms/item over %d spans"
              % (mod, v["self_s"] * 1e3 / n_items, v["spans"]))
    m = {}
    for name, (value, unit) in layer.items():
        emit(name, value, unit, m)
    emit("nonlocal_ops.strict_failures", strict_fails, "count", m)
    emit("trace.items_per_s.untraced", len(plain.latency)
         / sum(plain.latency), "1/s", m)
    emit("trace.items_per_s.traced", n_items / sum(spanned.latency), "1/s", m)
    emit("workload.items", n_items, "count", m)
    emit("workload.items_per_round", plan.counts["items_per_round"],
         "count", m)
    emit("workload.probes_per_round", plan.counts["probes_per_round"],
         "count", m)
    return [plain, spanned], m


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fracbern", "__init__.py")):
        print("no fracbern source under %s" % SRC, file=sys.stderr)
        return 2
    nproc = cap_threads()
    os.makedirs(OUT, exist_ok=True)
    if args.setup_only:
        _, _, seconds = setup(args, rounds_for(args))
        print(json.dumps({"setup_s": seconds}))
        return 0
    loops, metrics = (traced if args.trace else end_to_end)(args, nproc)
    print(json.dumps({"correct": all(s.wrong == 0 for s in loops),
                      "attempted": sum(len(s.latency) for s in loops),
                      "failed": sum(s.failed for s in loops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
