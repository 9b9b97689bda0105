#!/usr/bin/env python3
"""Run the benchmark over seeds, summarize runs, and compare two commits.

  compare.py run CHECKOUT OUT.jsonl [--seeds N] [--first-seed S] [--trace 0|1]
      Runs BENCHMARK.json's command in CHECKOUT for every workload and seed,
      appending one record per run to OUT.jsonl.
  compare.py pairs PARENT CHANGE OUT_PREFIX [--pairs N]
      Runs N parent/change pairs per workload, alternating which side runs
      first, into OUT_PREFIX.parent.jsonl and OUT_PREFIX.change.jsonl.
  compare.py summary RUNS.jsonl [MORE.jsonl ...]
      Median, quartiles and spread (IQR / median) of every metric.
  compare.py diff PARENT.jsonl CHANGE.jsonl --bench BENCHMARK.json
      Per workload and end-to-end metric: both medians, the change, and the
      verdict under the rule in README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def load_bench(checkout):
    return json.loads((Path(checkout) / "BENCHMARK.json").read_text())


def run_one(checkout, bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, check=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, "trace": trace, "result": result}


def append(path, record):
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")
    r = record["result"]
    print(f"{record['workload']} seed {record['seed']}: correct={r['correct']}", file=sys.stderr)


def load(paths):
    records = []
    for p in paths:
        records += [json.loads(line) for line in open(p) if line.strip()]
    return records


def series(records):
    """(workload, metric) -> values, in file order."""
    out = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def cmd_run(a):
    bench = load_bench(a.checkout)
    for seed in range(a.first_seed, a.first_seed + a.seeds):
        for w in bench["workloads"]:
            append(a.out, run_one(a.checkout, bench, w["name"], seed, a.trace))


def cmd_pairs(a):
    bench = load_bench(a.parent)
    for i in range(a.pairs):
        order = [("parent", a.parent), ("change", a.change)]
        if i % 2:
            order.reverse()
        for w in bench["workloads"]:
            for side, checkout in order:
                append(f"{a.out_prefix}.{side}.jsonl", run_one(checkout, bench, w["name"], i + 1, 0))


def cmd_summary(a):
    records = load(a.runs)
    bad = sum(1 for r in records if not r["result"]["correct"] or r["result"]["failed"])
    print(f"{len(records)} runs, {bad} with failures")
    print(f"{'workload':14} {'metric':28} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for (w, name), values in series(records).items():
        med, q1, q3, spread = stats(values)
        print(f"{w:14} {name:28} {len(values):3} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")


def cmd_diff(a):
    bench = json.loads(Path(a.bench).read_text())
    parent, change = series(load([a.parent])), series(load([a.change]))
    for w in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            p, c = parent.get((w, m["name"])), change.get((w, m["name"]))
            if not p or not c:
                continue
            sign = 1 if m["better"] == "lower" else -1
            pm, pq1, pq3, spread = stats(p)
            cm = statistics.median(c)
            worse = sign * (cm - pm) / pm if pm else 0.0
            pairs = min(len(p), len(c))
            wins = sum(1 for x, y in zip(p, c) if sign * (y - x) < 0)
            every_run_better = max(sign * y for y in c) < min(sign * x for x in p)
            if worse > m["bound"]:
                verdict = "REGRESSION"
            elif pairs >= 10 and wins >= 0.9 * pairs and abs(cm - pm) > pq3 - pq1:
                verdict = "gain"
            elif spread > m["bound"] and not every_run_better:
                verdict = "unresolved"
            else:
                verdict = "no regression"
            moved = "unchanged" if cm == pm else f"{abs(worse):.2%} {'worse' if worse > 0 else 'better'}"
            print(f"{w:14} {m['name']:24} parent {pm:12.6g} change {cm:12.6g} {moved:>14}  "
                  f"wins {wins}/{pairs}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("checkout")
    r.add_argument("out")
    r.add_argument("--seeds", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p = sub.add_parser("pairs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("out_prefix")
    p.add_argument("--pairs", type=int, default=10)
    s = sub.add_parser("summary")
    s.add_argument("runs", nargs="+")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    d.add_argument("--bench", required=True)
    a = ap.parse_args()
    {"run": cmd_run, "pairs": cmd_pairs, "summary": cmd_summary, "diff": cmd_diff}[a.cmd](a)


if __name__ == "__main__":
    main()
