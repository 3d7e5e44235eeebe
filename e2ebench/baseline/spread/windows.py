"""Global against per-run speed scaling, on one long process.

`windows.csv` holds every run of one 240-second `paper_closed` process
(`--seed 5`) in order: its wall time and the probe taken just before it,
both as measured. The script cuts the runs into 20-second windows, the
length of one benchmark process, and prints `run_s_p50` of each window
three ways: as measured; scaled by the window's median probe; and with
each run scaled by its own probe, as the benchmark does. It then prints
the spread of each reading over the windows.

    python3 e2ebench/baseline/spread/windows.py
"""

import csv
import math
import os
import statistics

REFERENCE_S = 0.75e-3
WINDOW_S = 20.0


def median(values):
    s = sorted(values)
    return s[math.ceil(len(s) / 2) - 1]


def main():
    path = os.path.join(os.path.dirname(__file__), "windows.csv")
    with open(path) as f:
        runs = [(float(r["wall_s"]), float(r["probe_s"])) for r in csv.DictReader(f)]
    windows, clock = [[]], 0.0
    for wall, probe in runs:
        clock += wall + probe
        if clock > WINDOW_S * len(windows):
            windows.append([])
        windows[-1].append((wall, probe))
    windows = [w for w in windows if len(w) >= 18]
    readings = {
        "as measured": lambda w: median([x for x, _ in w]),
        "median probe": lambda w: median([x for x, _ in w])
        * REFERENCE_S / median([p for _, p in w]),
        "per-run probe": lambda w: median([x * REFERENCE_S / p for x, p in w]),
    }
    for name, f in readings.items():
        v = [f(w) for w in windows]
        q = statistics.quantiles(v, n=4)
        print(f"{name:14s} spread {(q[2] - q[0]) / statistics.median(v):.4f}  "
              + " ".join(f"{x:.5f}" for x in v))


if __name__ == "__main__":
    main()
