"""Spread of the end-to-end metrics over seeds, as reported and as measured.

Runs the command `BENCHMARK.json` declares once per workload and seed,
from the root of the repository, and writes every value to a JSON file:

    python3 e2ebench/baseline/spread.py --seeds 1-10 --out set1.json

Each reported time is at the reference speed of `e2ebench/src/calib.rs`.
The reading as measured is computed again from the per-run records of the
report file the run writes: each run's times are turned back into the
times measured with the probe taken before it, then `setup_s`,
`run_s_p50` and `conn_per_s` are taken as the benchmark takes them.
Metrics that do not depend on speed are copied. For each workload and
metric the script prints the median and the spread, the distance between
the first and the third quartile as a share of the median, of both
readings.
"""

import argparse
import json
import math
import re
import statistics
import subprocess
import sys


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def median(values):
    """The nearest-rank median, as the benchmark reads it."""
    s = sorted(values)
    return s[math.ceil(len(s) / 2) - 1]


def as_measured(report, reported):
    runs = report["per_run"]
    back = [r["probe_s"] / report["reference_probe_s"] for r in runs]
    wall = [r["wall_s"] * b for r, b in zip(runs, back)]
    n = report["round"]
    rates = [
        sum(r["connections"] for r in runs[i:i + n]) / sum(wall[i:i + n])
        for i in range(0, len(runs) - n + 1, n)
    ]
    measured = dict(reported)
    measured["setup_s"] = median([r["setup_s"] * b for r, b in zip(runs, back)])
    measured["run_s_p50"] = median(wall)
    measured["conn_per_s"] = median(rates)
    return measured


def run(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    p = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: a check failed\n{p.stderr}")
    path = re.search(r"report written to (.+)", p.stderr).group(1).strip()
    with open(path) as f:
        report = json.load(f)
    reported = {name: m["value"] for name, m in result["metrics"].items()}
    speed = report["reference_probe_s"] / report["probe_s"]
    return {"seed": seed, "runs": result["attempted"], "speed": speed,
            "reported": reported, "measured": as_measured(report, reported)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    out = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for w in workloads:
        rows = []
        for seed in seed_list(args.seeds):
            row = run(bench, w, seed)
            rows.append(row)
            print(f"{w} seed {seed}: {row['runs']} runs, median speed "
                  f"{row['speed']:.4f}", flush=True)
        out["workloads"][w] = rows
        for name in rows[0]["reported"]:
            line = f"  {w} {name}:"
            for reading in ("reported", "measured"):
                v = [r[reading][name] for r in rows]
                line += (f" {reading} median {statistics.median(v):.6g}"
                         f" spread {spread(v):.4f};")
            print(line, flush=True)
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
