#!/usr/bin/env python3
"""Steadiness study: runs the benchmark ten times per workload, with seeds 1
to 10, for BENCHMARK.json's `run_seconds` each and tracing off, and reports
each metric's median and spread.

The spread of a metric is the distance between the first and third quartile
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median. A gated metric is steady when its spread stays below a third of the
bound ``BENCHMARK.json`` gives it. The statistics the benchmark prints on its
``informational`` line are recorded alongside, without a bound.

Run from the repository root:

    python3 bench-e2e/steadiness.py --json set-2.json [--compare set-1.json]

``--json`` writes every run's values. ``--compare`` sets the medians of an
earlier study beside this one's and flags a gated metric whose median got
worse by more than its bound. The exit code is 1 when a spread or a
comparison is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    metrics = dict(result["metrics"])
    for line in lines:
        if line.startswith('{"informational"'):
            metrics.update(json.loads(line)["informational"])
    return result, metrics


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def worsening(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / before
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", help="write the study to this file")
    parser.add_argument("--compare", help="an earlier study written with --json")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    gated = {m["name"]: m for m in bench["end_to_end"]}
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["workloads"]

    study = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    flagged = False
    for workload in [w["name"] for w in bench["workloads"]]:
        values = {}
        for seed in SEEDS:
            result, metrics = run_once(bench["command"], workload, seed, seconds)
            for name, metric in metrics.items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']}", file=sys.stderr)
        rows = {}
        print(f"\n{workload} ({len(SEEDS)} runs, {seconds} s)")
        header = f"  {'metric':<28} {'median':>12} {'spread':>7} {'bound':>6}"
        if earlier:
            header += f" {'earlier':>12} {'worse by':>8}"
        print(header)
        for name, vals in values.items():
            med, spr = spread(vals)
            metric = gated.get(name)
            bound = metric["bound"] if metric else None
            flags = []
            if bound is not None and spr >= bound / 3:
                flags.append("spread above a third of its bound")
            line = f"  {name:<28} {med:>12.6g} {spr:>7.4f} {'' if bound is None else bound:>6}"
            if earlier:
                before = earlier[workload][name]["median"]
                worse = worsening(before, med, metric["better"]) if metric else None
                line += f" {before:>12.6g} {'' if worse is None else f'{worse:.4f}':>8}"
                if worse is not None and worse > bound:
                    flags.append("median worse than the earlier study by more than its bound")
            flagged = flagged or bool(flags)
            rows[name] = {"median": med, "spread": spr, "bound": bound, "values": vals}
            print(line + "".join(f"  <-- {f}" for f in flags))
        study["workloads"][workload] = rows
    if args.json:
        with open(args.json, "w") as f:
            json.dump(study, f, indent=1)
            f.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
