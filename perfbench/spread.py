#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports, for each
end-to-end metric, every run's value, the median and the spread: the
interquartile range over the median, from statistics.quantiles(values,
n=4). Spreads above a third of a metric's bound in BENCHMARK.json are
flagged, setup_s included.

    python3 perfbench/spread.py --workload place --seeds 1-5
    python3 perfbench/spread.py --all --seeds 1-10 --save set1.json
    python3 perfbench/spread.py --all --seeds 11-20 --save set2.json
    python3 perfbench/spread.py --compare set1.json set2.json

--compare reads two saved sets and reports, per workload and metric,
both spreads and how far the second median is worse than the first as a
share of the first; a delta beyond the bound is flagged.

Run from the repository root. Exits 1 if anything is flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True, timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(xs):
    med = statistics.median(xs)
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return med, (q[2] - q[0]) / med if med else 0.0


def measure(bench, workloads, seed_spec, seconds):
    """Returns {workload: {metric: [value per seed]}} and whether every
    run was correct, printing each run as it finishes."""
    sets, ok = {}, True
    for w in workloads:
        vals = sets.setdefault(w, {})
        for s in seeds(seed_spec):
            res = run(w, s, seconds)
            if not res["correct"]:
                print(f"{w} seed {s}: incorrect: {res}", file=sys.stderr)
                ok = False
            for k, m in res["metrics"].items():
                vals.setdefault(k, []).append(m["value"])
            print(f"run {w} seed {s}: " + " ".join(
                f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in bench["end_to_end"]))
            sys.stdout.flush()
    return sets, ok


def report(bench, sets):
    ok = True
    for w, vals in sets.items():
        for m in bench["end_to_end"]:
            xs = vals[m["name"]]
            med, sp = spread(xs)
            flag = ""
            if sp > m["bound"] / 3:
                flag = "  <-- above bound/3"
                ok = False
            print(f"{w:10s} {m['name']:16s} median {med:12.6g}  spread {sp:7.2%}  "
                  f"bound {m['bound']:.2f}  min {min(xs):.6g} max {max(xs):.6g}{flag}")
    return ok


def compare(bench, a, b):
    ok = True
    for w in a:
        if w not in b:
            continue
        for m in bench["end_to_end"]:
            xs, ys = a[w][m["name"]], b[w][m["name"]]
            ma, sa = spread(xs)
            mb, sb = spread(ys)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = ""
            if worse > m["bound"] or max(sa, sb) > m["bound"]:
                flag = "  <-- beyond bound"
                ok = False
            print(f"{w:10s} {m['name']:16s} median {ma:12.6g} -> {mb:12.6g}  worse by {worse:+7.2%}  "
                  f"spreads {sa:6.2%} {sb:6.2%}  bound {m['bound']:.2f}{flag}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save", help="write the set's values to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar="SET", help="compare two saved sets")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(bench, *sets) else 1)
    workloads = [w["name"] for w in bench["workloads"]] if args.all else args.workload
    sets, ok = measure(bench, workloads, args.seeds, args.seconds or bench["run_seconds"])
    if args.save:
        with open(args.save, "w") as f:
            json.dump(sets, f, indent=1)
    ok = report(bench, sets) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
