#!/usr/bin/env python3
"""Compare freshly produced bench JSON against the committed BENCH_*.json.

It also reads the Google-Benchmark JSON that the figure benches write with
`--benchmark_out=FILE --benchmark_out_format=json`, committed under
bench/reference/: rows match by position and name, and `real_time` (the
simulated time) must match exactly.

The simulator is deterministic, so simulated quantities (sim_ms, byte
categories, copy/sub-kernel counts, cache hits) must reproduce the committed
reference almost exactly; a drift beyond the tolerance means the change under
test altered scheduler behaviour and the reference needs a deliberate
refresh. Wall-clock quantities (plan_us_per_task etc.) depend on the machine
running the bench and are skipped.

Usage:
  bench/compare_bench.py FRESH REF [FRESH REF ...] [--rel-tol 0.01]

Exit status: 0 all pairs match, 1 any mismatch, 2 usage/IO error.
"""

import argparse
import json
import re
import sys

# Host wall-clock measurements and their derivatives: machine-dependent,
# excluded from the regression gate. The figure benches write Google-Benchmark
# JSON, whose `real_time` is the simulated time (exact) while `cpu_time` and
# the run `context` (date, host, load) describe the machine.
NOISY_KEY = re.compile(
    r"^(plan_us_per_task|wall_us_per_task|plan_time_us|replay_time_us|"
    r"planning_speedup|wall_ms|wall_speedup|monitor_us_per_task|"
    r"route_us_per_task|plan_us_ratio|cpu_time|context)$"
)


def compare(fresh, ref, path, rel_tol, errors, missing):
    if isinstance(ref, dict):
        if not isinstance(fresh, dict):
            errors.append(f"{path}: expected object, got {type(fresh).__name__}")
            return
        for key in sorted(set(fresh) | set(ref)):
            sub = f"{path}.{key}" if path else key
            if key not in fresh:
                # A reference key the bench no longer emits. Collected
                # separately (not silently skipped, even for NOISY keys):
                # a disappeared key means the bench's JSON schema changed,
                # which must be a deliberate reference refresh.
                missing.append(sub)
            elif key not in ref:
                errors.append(f"{sub}: not in committed reference")
            elif NOISY_KEY.match(key):
                continue
            else:
                compare(fresh[key], ref[key], sub, rel_tol, errors, missing)
    elif isinstance(ref, bool) or isinstance(ref, str) or ref is None:
        if fresh != ref:
            errors.append(f"{path}: {fresh!r} != {ref!r}")
    elif isinstance(ref, int) and isinstance(fresh, int):
        # Deterministic counters (copies, sub-kernels, cache hits, bytes).
        if fresh != ref:
            errors.append(f"{path}: {fresh} != {ref} (counters must be exact)")
    elif isinstance(ref, (int, float)) and isinstance(fresh, (int, float)):
        denom = max(abs(ref), abs(fresh), 1e-12)
        rel = abs(fresh - ref) / denom
        if rel > rel_tol:
            errors.append(
                f"{path}: {fresh} vs {ref} (rel diff {rel:.4f} > {rel_tol})"
            )
    elif isinstance(ref, list):
        if not isinstance(fresh, list) or len(fresh) != len(ref):
            errors.append(f"{path}: list shape differs")
        else:
            for i, (a, b) in enumerate(zip(fresh, ref)):
                compare(a, b, f"{path}[{i}]", rel_tol, errors, missing)
    else:
        errors.append(f"{path}: type mismatch {type(fresh)} vs {type(ref)}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="+", metavar="FRESH REF",
                    help="pairs of fresh and committed JSON files")
    ap.add_argument("--rel-tol", type=float, default=0.01,
                    help="relative tolerance for simulated floats")
    args = ap.parse_args(argv)
    if len(args.files) % 2 != 0:
        ap.error("expected FRESH REF pairs")

    failed = False
    for fresh_path, ref_path in zip(args.files[::2], args.files[1::2]):
        try:
            with open(fresh_path) as f:
                fresh = json.load(f)
            with open(ref_path) as f:
                ref = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        if fresh.get("mode") != ref.get("mode"):
            print(f"{fresh_path}: mode {fresh.get('mode')!r} does not match "
                  f"reference {ref.get('mode')!r}; run the bench without "
                  f"--smoke to compare against a full-mode reference",
                  file=sys.stderr)
            failed = True
            continue
        errors = []
        missing = []
        compare(fresh, ref, "", args.rel_tol, errors, missing)
        if errors or missing:
            failed = True
            print(f"MISMATCH {fresh_path} vs {ref_path}:")
            for e in errors:
                print(f"  {e}")
            if missing:
                print(f"  committed reference keys absent from the fresh "
                      f"output ({len(missing)}):")
                for key in missing:
                    print(f"    - {key}")
        else:
            print(f"ok: {fresh_path} matches {ref_path}")
    if failed:
        print("\nIf the change is intentional, regenerate the committed "
              "BENCH_*.json with the full-mode bench and commit it.",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
