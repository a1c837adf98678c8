#!/usr/bin/env python3
"""Holds two sets of runs of the same code against the benchmark's own bounds.

usage: compare.py BENCHMARK.json first.jsonl second.jsonl

Each .jsonl line is a result line of the benchmark with "workload" and
"trace" keys added (repeat.sh writes them). Every end-to-end metric must
agree within its bound, in either direction; every per-layer metric whose
unit is "count" must be equal. Prints both values and their distance, and
exits 1 on any disagreement.
"""
import json
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            runs[(r["workload"], r["trace"])] = r
    return runs


def main():
    manifest = json.load(open(sys.argv[1]))
    first, second = load(sys.argv[2]), load(sys.argv[3])
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    bad = 0
    for key in sorted(first):
        workload, trace = key
        a, b = first[key], second[key]
        if not (a["correct"] and b["correct"]):
            print(f"{workload} trace={trace}: a run failed its correctness check")
            bad += 1
        for name, ma in a["metrics"].items():
            va, vb = ma["value"], b["metrics"][name]["value"]
            if trace == 0:
                spread = abs(va - vb) / min(abs(va), abs(vb))
                ok = spread <= bounds[name]
                note = f"spread {spread:.4f} bound {bounds[name]}"
            elif ma["unit"] == "count":
                ok = va == vb
                note = "count"
            else:
                continue
            bad += not ok
            flag = "ok " if ok else "BAD"
            print(f"{flag} {workload:14} {name:42} {va:18.4f} {vb:18.4f} {ma['unit']:6} {note}")
    print(f"{bad} disagreement(s)")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
