#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

Run from the repository root:

    python3 perfbench/selftest.py [--workloads paper_frames,serve_faulted]

For each workload (all of BENCHMARK.json's by default), with short runs, it
checks that:

  * every end_to_end metric of BENCHMARK.json is emitted with its unit by
    --trace 0, and every per_layer metric by --trace 1;
  * the binary reports the SIMD backend the build was configured with;
  * the digests of every seed in perfbench/references.json equal the stored
    ones, and those runs pass their checks;
  * the same seed gives bit-identical modeled metrics and digests;
  * a different seed changes the modeled digests (the seed reaches the
    inputs);
  * a corrupted reference digest fails every op (failed == attempted,
    correct == false).

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402  (perfbench/run.py)

ROOT = bench.ROOT
MODELED = ("modeled_frame_s", "modeled_latency_p50_s",
           "modeled_latency_p99_s", "served_frac")


def parse(stdout):
    """(result, {digest key: hex}, simd backend) of one run's stdout."""
    lines = stdout.strip().splitlines()
    digests = {}
    backend = None
    for line in lines:
        if line.startswith("digest "):
            _, shape, kind, value = line.split()
            digests[shape + " " + kind] = value
        m = re.search(r"simd backend (\S+), setups", line)
        if m:
            backend = m.group(1)
    return json.loads(lines[-1]), digests, backend


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (" ".join(cmd),
                                                   out.returncode,
                                                   out.stderr[-2000:]))
    return parse(out.stdout)


def run_with_references(workload, seed, references):
    """Runs the built binary with the given references instead of the
    stored ones."""
    scratch = os.path.join(ROOT, ".bench_build", "selftest-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        out = subprocess.run(
            bench.binary_command(workload, seed, 1, 0, scratch, references),
            cwd=ROOT, capture_output=True, text=True, timeout=300)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if out.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (workload, out.returncode,
                                                   out.stderr[-2000:]))
    return parse(out.stdout)


def configured_backend():
    """The backend name vec8.hpp reports for the build's PVR_SIMD setting."""
    cache = {}
    with open(os.path.join(bench.BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_]+):\w+=(.*)", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    simd = cache.get("PVR_SIMD", "auto")
    if simd == "auto":
        return "native" if cache.get("PVR_HAVE_MARCH_NATIVE") == "1" \
            else "vector-ext"
    return simd


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench_json = json.load(f)
    with open(bench.REFERENCES) as f:
        stored = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in bench_json["workloads"]))
    args = parser.parse_args()

    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for name in args.workloads.split(","):
        first, dig1, backend = run(name, 1, 0)
        for m in bench_json["end_to_end"]:
            got = first["metrics"].get(m["name"])
            check(got is not None and got["unit"] == m["unit"],
                  "%s emits %s [%s]" % (name, m["name"], m["unit"]))
        check(first["correct"] and first["failed"] == 0,
              "%s passes its correctness checks" % name)
        check(backend == configured_backend(),
              "%s reports simd backend %s, configured %s" %
              (name, backend, configured_backend()))

        seeds = sorted(stored.get(name, {}), key=int)
        check(len(seeds) >= 2, "%s has stored references for seeds %s" %
              (name, ", ".join(seeds)))
        for seed in seeds:
            result, digests = (first, dig1) if seed == "1" else \
                run(name, int(seed), 0)[:2]
            check(digests == stored[name][seed] and result["correct"],
                  "%s seed %s reproduces its stored references" %
                  (name, seed))

        again, dig2, _ = run(name, 1, 0)
        check(all(first["metrics"][k]["value"] == again["metrics"][k]["value"]
                  for k in MODELED),
              "%s same seed, bit-identical modeled metrics" % name)
        check(dig1 == dig2 and len(dig1) > 0,
              "%s same seed, identical digests" % name)

        _, dig3, _ = run(name, 2, 0)
        check(dig1 != dig3, "%s other seed changes the modeled digests" % name)

        traced, _, _ = run(name, 1, 1)
        for m in bench_json["per_layer"]:
            got = traced["metrics"].get(m["name"])
            check(got is not None and got["unit"] == m["unit"],
                  "%s traced run emits %s [%s]" % (name, m["name"], m["unit"]))
        check(traced["correct"], "%s traced run passes its checks" % name)

        corrupted = {k: "%016x" % (int(v, 16) ^ 1) for k, v in dig1.items()}
        bad, _, _ = run_with_references(name, 1, corrupted)
        check(not bad["correct"] and bad["failed"] == bad["attempted"] > 0,
              "%s corrupted reference shows in failed (%d of %d)" %
              (name, bad["failed"], bad["attempted"]))

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
