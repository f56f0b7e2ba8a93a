#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles ../src) with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
one workload and prints, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
declared in BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.
A human-readable summary, the host manifest and the Chrome trace path go to
standard error. Every result is also appended, with its manifest, to
results.jsonl in the build directory; compare.py reads those logs.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Manifest fields that must match for two results to be comparable. The
# commit is what a comparison varies, and the seed varies by protocol.
HOST_KEYS = ("nproc", "exec_threads", "invoker_threads", "build_type", "compiler")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(out_dir):
    """Configures (first time) and builds the benchmark; returns the binary."""
    log_path = os.path.join(out_dir, "build.log")
    os.makedirs(out_dir, exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(out_dir, ignore_errors=True)  # retry cleanly next time
                fail("cmake configure failed", 3)
        jobs = str(min(4, nproc()))
        if subprocess.call(["cmake", "--build", out_dir, "-j", jobs],
                           stdout=log, stderr=subprocess.STDOUT) != 0:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            fail("build failed (log: %s)" % log_path, 3)
    return os.path.join(out_dir, "perfbench")


def source_digest():
    """sha256 over the benchmark's and the program's source files."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, \
           {m["name"]: m["unit"] for m in spec["per_layer"]}


def manifest_diff(a, b):
    return [k for k in HOST_KEYS if a.get(k) != b.get(k)]


def log_result(out_dir, record):
    """Appends the result; flags earlier results of the workload taken under
    a different host manifest as not comparable."""
    path = os.path.join(out_dir, "results.jsonl")
    if os.path.exists(path):
        with open(path) as f:
            earlier = [json.loads(line) for line in f if line.strip()]
        for old in earlier:
            if old["workload"] != record["workload"]:
                continue
            diff = manifest_diff(old["manifest"], record["manifest"])
            if diff:
                print("perfbench: not comparable with the result of seed %s "
                      "(manifest differs in %s)" % (old["manifest"].get("seed"), ", ".join(diff)),
                      file=sys.stderr)
                break
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject", default="none",
                    choices=("none", "flip_cell", "unbalanced_ledger"),
                    help="corrupt a checked output (checker self-test only)")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "multi", "scheduler.hpp")):
        fail("program sources (src/) not found next to perfbench/", 2)
    end_to_end, per_layer = declared_metrics()
    out_dir = build_dir()
    binary = build(out_dir)

    threads = min(4, nproc())
    env = dict(os.environ, MAPS_EXEC_THREADS=str(threads))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--inject", args.inject]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(out_dir, "traces", "%s-seed%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark binary exited with %d" % proc.returncode, 4)
    res = json.loads(lines[-1])

    wanted = per_layer if args.trace else end_to_end
    section = res["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for name, unit in wanted.items():
        if name not in section or section[name]["unit"] != unit:
            fail("metric %s (%s) missing from the output" % (name, unit), 4)
        metrics[name] = {"value": section[name]["value"], "unit": unit}

    manifest = dict(res["manifest"], seed=args.seed, commit=commit(),
                    source_digest=source_digest())
    if args.inject == "none":
        log_result(out_dir, {"workload": args.workload, "trace": args.trace,
                             "manifest": manifest, "correct": res["correct"],
                             "attempted": res["attempted"], "failed": res["failed"],
                             "step_samples": res["step_samples"], "metrics": metrics})
    print("perfbench %s seed %d: %d epochs, end-to-end over the fastest %d "
          "(%d step samples, %d beyond p90), %d/%d operations failed"
          % (args.workload, args.seed, res["epochs"], res["quiet_epochs"],
             res["step_samples"], res["p90_tail_samples"], res["failed"],
             res["attempted"]), file=sys.stderr)
    print("manifest: " + json.dumps(manifest, sort_keys=True), file=sys.stderr)
    if trace_path:
        print("chrome trace: " + os.path.relpath(trace_path, ROOT), file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
