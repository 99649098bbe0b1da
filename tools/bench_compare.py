#!/usr/bin/env python3
"""Compare two schema-v2 bench baselines (BENCH_*.json) section by section.

Usage:
    tools/bench_compare.py OLD.json NEW.json [--threshold PCT]

Every section of every bench is joined by (bench, config, section name)
across the two files — config being "plain" or "obs" — and the
msgs_per_sec and p99_us deltas are printed. A section whose throughput
drops, or whose p99 latency grows, by more than the threshold (default
15%) is a REGRESSION and turns the exit code nonzero, so CI can gate on
a bench run against the committed baseline.

A section present in OLD but missing from NEW is a DROPPED section and
FAILS the comparison: losing a measurement silently is how coverage
rots. Sanctioned renames/retirements pass `--allow-drop REGEX`
(matched against "bench/config/section", repeatable) and get a row in
EXPERIMENTS.md. Sections only in NEW are reported but never fail.

Raw single-binary documents (`dityco-bench-v2`, e.g. the output of
`tycoload --bench-json` or any bench's own `--bench-json`) are accepted
on either side: their top-level sections join under (bench, "plain").
A document with no sections at all (e.g. a schema-v1 baseline of
per-binary wall-clock totals) is rejected: there is nothing to gate on.
"""
import argparse
import json
import re
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")


def sections(doc):
    """{(bench, config, section): section-dict} for a baseline document."""
    out = {}
    for bench in doc.get("benches", []):
        name = bench.get("bench", "?")
        for config in ("plain", "obs"):
            for sec in bench.get(config, {}).get("sections", []):
                out[(name, config, sec.get("name", "?"))] = sec
    # Raw single-binary document (tycoload --bench-json, bench_* --bench-json):
    # top-level sections join as the "plain" config of that binary.
    if not out and doc.get("schema") == "dityco-bench-v2":
        name = doc.get("bench", "?")
        for sec in doc.get("sections", []):
            out[(name, "plain", sec.get("name", "?"))] = sec
    return out


def pct(new, old):
    if old == 0:
        return 0.0
    return (new - old) / old * 100.0


def main():
    ap = argparse.ArgumentParser(
        description="diff two schema-v2 bench baselines")
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=15.0,
                    help="regression threshold in percent (default 15)")
    ap.add_argument("--allow-drop", action="append", default=[],
                    metavar="REGEX",
                    help="bench/config/section pattern whose disappearance "
                         "is sanctioned (repeatable)")
    args = ap.parse_args()

    old_secs, new_secs = sections(load(args.old)), sections(load(args.new))
    for path, secs in ((args.old, old_secs), (args.new, new_secs)):
        if not secs:
            sys.exit(f"bench_compare: {path} has no schema-v2 sections")
    allowed = [re.compile(p) for p in args.allow_drop]

    regressions = []
    rows = []
    for key in sorted(set(old_secs) | set(new_secs)):
        bench, config, sec = key
        label = f"{bench}/{config}/{sec}"
        if key not in old_secs:
            rows.append(f"  NEW      {label}")
            continue
        if key not in new_secs:
            if any(p.search(label) for p in allowed):
                rows.append(f"  DROPPED  {label} (allowed)")
            else:
                rows.append(f"  DROPPED  {label}  << REGRESSION "
                            "(measurement lost; --allow-drop to sanction)")
                regressions.append(label + " (dropped)")
            continue
        o, n = old_secs[key], new_secs[key]
        d_tput = pct(n.get("msgs_per_sec", 0), o.get("msgs_per_sec", 0))
        d_p99 = pct(n.get("p99_us", 0), o.get("p99_us", 0))
        flag = ""
        # Throughput DOWN or p99 UP beyond the threshold is a regression.
        if d_tput < -args.threshold or d_p99 > args.threshold:
            flag = "  << REGRESSION"
            regressions.append(label)
        rows.append(
            f"  {'ok' if not flag else '!!':8s}{label:60s} "
            f"msgs/s {o.get('msgs_per_sec', 0):>12.1f} -> "
            f"{n.get('msgs_per_sec', 0):>12.1f} ({d_tput:+6.1f}%)  "
            f"p99_us {o.get('p99_us', 0):>9.3f} -> "
            f"{n.get('p99_us', 0):>9.3f} ({d_p99:+6.1f}%){flag}")

    print(f"bench_compare: {args.old} -> {args.new} "
          f"(threshold {args.threshold:g}%)")
    print("\n".join(rows))

    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s) beyond "
              f"{args.threshold:g}%:")
        for r in regressions:
            print(f"  {r}")
        return 1
    print("bench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
