#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny size (about two minutes).

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric named in
BENCHMARK.json is printed with its unit, that the exact counts repeat
across two traced runs of one seed, and that the benchmark exits non-zero
without a result when the fracbern source is missing.  Not collected by
pytest: it runs the benchmark in subprocesses.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = ("count", "B")


def bench(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def run_ok(workload, trace, seed=5):
    proc = bench(["--workload", workload, "--seed", str(seed),
                  "--seconds", "1", "--trace", str(trace), "--size", "tiny"])
    if proc.returncode != 0:
        raise AssertionError("%s trace %d exited %d:\n%s" % (
            workload, trace, proc.returncode, proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def check_metrics(result, lines, specs, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["attempted"] >= 1, label
    printed = {ln.split()[1]: ln.split()[3] for ln in lines
               if ln.startswith("metric ")}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        assert got is not None, "%s: %s missing" % (label, name)
        assert got["unit"] == unit, "%s: %s unit %r" % (label, name,
                                                        got["unit"])
        assert isinstance(got["value"], (int, float)), (label, name)
        assert printed.get(name) == unit, "%s: %s line" % (label, name)
    assert set(result["metrics"]) == {s["name"] for s in specs}, label


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in (x["name"] for x in spec["workloads"]):
        result, lines = run_ok(w, 0)
        check_metrics(result, lines, spec["end_to_end"], w + " trace 0")
        first, lines = run_ok(w, 1)
        check_metrics(first, lines, spec["per_layer"], w + " trace 1")
        second, _ = run_ok(w, 1)
        for s in spec["per_layer"]:
            if s["unit"] in COUNT_UNITS:
                a = first["metrics"][s["name"]]["value"]
                b = second["metrics"][s["name"]]["value"]
                assert a == b, "%s: count %s %r != %r" % (w, s["name"], a, b)
        print("ok", w)

    bare = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(["--workload", spec["workloads"][0]["name"], "--seed",
                      "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "ran without the fracbern source"
        assert '"correct"' not in proc.stdout, "printed a result"
    finally:
        shutil.rmtree(bare)
    print("ok bare directory")


if __name__ == "__main__":
    main()
