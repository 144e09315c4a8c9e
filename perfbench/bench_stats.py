#!/usr/bin/env python3
"""Repeat and compare modes for the CoolAir benchmark.

Repeat: run one workload's untraced pass N times with seeds K..K+N-1, each
for BENCHMARK.json's run_seconds, and print each metric's median and
quartiles. Every result line is appended to --out as JSON lines. With two
--checkout directories the runs alternate between them (A B, B A, A B, ...)
and each checkout's results go to <out>.a / <out>.b:

    python3 perfbench/bench_stats.py repeat --workload paper_year --runs 10 \
        [--seed0 1] [--checkout DIR [--checkout DIR]] [--out results.jsonl]

Compare: read a parent and a change result file and print, per workload and
end-to-end metric of BENCHMARK.json, the medians, quartiles, pair wins and a
verdict:

    python3 perfbench/bench_stats.py compare PARENT.jsonl CHANGE.jsonl

Quartiles are Python's statistics.quantiles(values, n=4). The verdict is
"changed" when the parent's values repeat exactly (a simulated outcome) and
the change's median differs from them in either direction, "unresolved" when
either set's interquartile spread exceeds the metric's bound (as a share of
its median), "regression" when the change's median is worse than the
parent's by more than the bound, "gain" when the change wins at least nine
tenths of the alternating (parent, change) pairs and the medians differ by
more than the parent's interquartile spread, and "no change" otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def benchmark():
    """The repository's BENCHMARK.json."""
    with open(BENCHMARK, encoding="utf-8") as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) of a sample, by statistics.quantiles(n=4)."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def wins(parent, change, better):
    """How many (parent, change) pairs the change wins."""
    if better == "lower":
        return sum(1 for p, c in zip(parent, change) if c < p)
    return sum(1 for p, c in zip(parent, change) if c > p)


def verdict(parent, change, better, bound):
    """changed / unresolved / regression / gain / no change (see module docs)."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if len(set(parent)) == 1 and cm != pm:
        return "changed"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    worse = (cm - pm) / abs(pm) if better == "lower" else (pm - cm) / abs(pm)
    if worse > bound:
        return "regression"
    pairs = min(len(parent), len(change))
    improved = cm < pm if better == "lower" else cm > pm
    if improved and wins(parent, change, better) >= 0.9 * pairs and abs(cm - pm) > (p3 - p1):
        return "gain"
    return "no change"


def run_once(checkout, workload, seed, seconds):
    """Runs the untraced pass once in `checkout`; returns the parsed result."""
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} in {checkout}: exit {proc.returncode}")
    return json.loads(lines[-1])


def load(path):
    """Result file → {workload: [result, ...]} in file order."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                out.setdefault(row["workload"], []).append(row["result"])
    return out


def summarize(results):
    """Prints median, quartiles and spread of every metric."""
    names = []
    for r in results:
        for name in r["metrics"]:
            if name not in names:
                names.append(name)
    print(f"{'metric':<28}{'unit':>8}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        unit = next(r["metrics"][name]["unit"] for r in results if name in r["metrics"])
        q1, med, q3 = quartiles(values)
        print(f"{name:<28}{unit:>8}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread(values):>9.3f}")
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"runs {len(results)}, attempted {attempted}, failed {failed}")


def cmd_repeat(args):
    checkouts = args.checkout or ["."]
    if len(checkouts) > 2:
        raise SystemExit("at most two --checkout directories")
    suffixes = [""] if len(checkouts) == 1 else [".a", ".b"]
    seconds = benchmark()["run_seconds"]
    results = [[] for _ in checkouts]
    for i in range(args.runs):
        seed = args.seed0 + i
        # Alternate which checkout goes first, so neither always runs on
        # the host state the other left behind.
        order = list(enumerate(checkouts))
        for k, checkout in order if i % 2 == 0 else order[::-1]:
            result = run_once(checkout, args.workload, seed, seconds)
            results[k].append(result)
            if args.out:
                with open(args.out + suffixes[k], "a", encoding="utf-8") as f:
                    row = {"workload": args.workload, "seed": seed, "checkout": checkout, "result": result}
                    f.write(json.dumps(row) + "\n")
            print(f"run {i + 1}/{args.runs} seed {seed} {checkout}: "
                  + ", ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                              if not n.startswith("self.")),
                  file=sys.stderr)
    for checkout, res in zip(checkouts, results):
        print(f"\n== {args.workload} in {checkout}")
        summarize(res)


def cmd_compare(args):
    bench = benchmark()
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':<16}{'metric':<18}{'parent med [q1, q3]':>40}{'change med [q1, q3]':>40}"
          f"{'wins':>8}  verdict")
    for workload in parent:
        if workload not in change:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent[workload] if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change[workload] if name in r["metrics"]]
            if not p or not c:
                continue
            pq, cq = quartiles(p), quartiles(c)
            w = wins(p, c, metric["better"])
            v = verdict(p, c, metric["better"], metric["bound"])
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{workload:<16}{name:<18}{fmt(pq):>40}{fmt(cq):>40}{w:>5}/{min(len(p), len(c)):<2}  {v}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rep = sub.add_parser("repeat")
    rep.add_argument("--workload", required=True)
    rep.add_argument("--runs", type=int, default=10)
    rep.add_argument("--seed0", type=int, default=1)
    rep.add_argument("--checkout", action="append")
    rep.add_argument("--out")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    args = parser.parse_args()
    if args.mode == "repeat":
        cmd_repeat(args)
    else:
        cmd_compare(args)


if __name__ == "__main__":
    main()
