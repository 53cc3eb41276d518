#!/usr/bin/env python3
"""Build and run the outside-in pvr benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper_frames, insitu_composite, execute_render, serve_faulted.
The script configures and builds perfbench/ (which pulls the library in from
src/ with the main build's flags) into .bench_build/perfbench, then runs the
benchmark binary. Build output goes to stderr; the binary's stdout is passed
through, and its last line is the JSON result. A generated dataset file
lives in a per-run directory under .bench_build and is removed on exit.

perfbench/references.json holds the digests recorded for some seeds of each
workload ({workload: {seed: {"<shape> <kind>": hex}}}); they are passed to
the binary, which checks the warm-up ops and every timed op against them.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pvr_perfbench")
REFERENCES = os.path.join(ROOT, "perfbench", "references.json")
RUN_TIMEOUT_S = 170


def build():
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def describe():
    """git describe when the tree is a git checkout, else a source digest."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def stored_references(workload, seed):
    with open(REFERENCES) as f:
        return json.load(f).get(workload, {}).get(str(seed), {})


def binary_command(workload, seed, seconds, trace, scratch, references):
    """The benchmark binary's command line; references maps digest key to
    hex."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch, "--describe", describe()]
    for key, value in sorted(references.items()):
        cmd += ["--reference", "%s=%s" % (key, value)]
    return cmd


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    scratch = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    cmd = binary_command(args.workload, args.seed, args.seconds, args.trace,
                         scratch,
                         stored_references(args.workload, args.seed))
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
