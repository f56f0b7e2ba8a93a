#!/usr/bin/env python3
"""Summarises and compares benchmark result logs.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each log is a results.jsonl written by run.py (one JSON record per run).
For every workload and metric it prints the run count, the median and the
spread (interquartile range over median). Given two logs, it also prints
the change's median relative to the base's. Results whose host manifests
(core count, pool and invoker threads, build type, compiler) differ are
flagged NOT COMPARABLE; incorrect runs are left out and counted.
"""

import json
import statistics
import sys

from run import HOST_KEYS


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def host(record):
    return tuple(record["manifest"].get(k) for k in HOST_KEYS)


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def group(records):
    """{(workload, trace): {metric: [values]}} over correct runs."""
    out = {}
    for r in records:
        if r["correct"]:
            metrics = out.setdefault((r["workload"], r["trace"]), {})
            for name, m in r["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    logs = [load(p) for p in argv[1:]]
    hosts = {host(r) for log in logs for r in log}
    if len(hosts) > 1:
        print("NOT COMPARABLE: results come from %d host manifests %s:" % (len(hosts), HOST_KEYS))
        for h in sorted(hosts, key=str):
            print("  " + json.dumps(dict(zip(HOST_KEYS, h))))
    for i, log in enumerate(logs):
        bad = sum(1 for r in log if not r["correct"])
        if bad:
            print("%s: %d incorrect run(s) left out" % (argv[1 + i], bad))
    groups = [group(log) for log in logs]
    for key in sorted(groups[0]):
        print("\n%s (trace %d)" % key)
        for name, values in sorted(groups[0][key].items()):
            med, spread = summary(values)
            line = "  %-34s n=%-3d median %-14.6g spread %6.3f" % (name, len(values), med, spread)
            other = groups[1].get(key, {}).get(name) if len(groups) == 2 else None
            if other:
                med2, spread2 = summary(other)
                change = (med2 - med) / abs(med) if med else 0.0
                line += "  | change n=%-3d median %-14.6g spread %6.3f  %+.2f%%" % (
                    len(other), med2, spread2, 100 * change)
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
