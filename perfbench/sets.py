#!/usr/bin/env python3
"""Run sets of benchmark runs and summarise them.

    python3 perfbench/sets.py [--seeds 10] [--trace 0]
                              [--workload W ...] [--checkout DIR ...]
                              [--record LABEL]

For every seed 1..N, every workload is run once (round-robin, so drift on
the machine hits all workloads alike) with `perfbench/run.py` and the
run length of BENCHMARK.json. Each metric is summarised by its median,
quartiles (statistics.quantiles, n=4), sample count and spread (the
interquartile distance as a share of the median).

With two --checkout directories (say the parent commit and a change),
every (seed, workload) pair runs on both, alternating which goes first,
and the summary adds how many pairs the second checkout won. --record
appends one row per checkout and workload to perfbench/trajectory.jsonl.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(checkout, workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    # Exit 1 with a result line is a failed check; anything else could not run.
    if r.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.exit(f"{checkout}: {workload} seed {seed} could not run "
                 f"(exit {r.returncode})\n{r.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: {workload} seed {seed} failed its checks\n{r.stderr}")
    return result["metrics"]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def describe(checkout):
    def out(*cmd):
        try:
            return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"
    return {"rev": out("git", "rev-parse", "--short", "HEAD"),
            "cores": os.cpu_count(), "ocaml": out("ocamlopt", "-version"),
            "machine": platform.machine()}


def main():
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--checkout", action="append")
    ap.add_argument("--record", metavar="LABEL")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    checkouts = [os.path.abspath(c) for c in args.checkout or [os.path.join(HERE, "..")]]
    seeds = list(range(1, args.seeds + 1))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    runs = {(c, w): [] for c in checkouts for w in workloads}
    for i, seed in enumerate(seeds):
        for w in workloads:
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for c in order:
                runs[(c, w)].append(run_once(c, w, seed, spec["run_seconds"], args.trace))
            print(f"seed {seed} {w} done", file=sys.stderr)
    rows = []
    for c in checkouts:
        info = describe(c)
        for w in workloads:
            summ = {m: dict(summary([r[m]["value"] for r in runs[(c, w)]]),
                            unit=runs[(c, w)][0][m]["unit"]) for m in better}
            rows.append(dict(info, set=args.record, workload=w, seeds=seeds,
                             trace=args.trace, metrics=summ))
            for m, s in summ.items():
                line = (f"{os.path.basename(c) or c} {w} {m} median {s['median']:.6g} "
                        f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} n {s['n']}")
                if len(checkouts) == 2 and c == checkouts[1]:
                    a, b = runs[(checkouts[0], w)], runs[(c, w)]
                    sign = 1 if better[m] == "lower" else -1
                    wins = sum(sign * (x[m]["value"] - y[m]["value"]) > 0 for x, y in zip(a, b))
                    line += f" wins {wins}/{len(a)}"
                print(line)
    if args.record:
        with open(os.path.join(HERE, "trajectory.jsonl"), "a") as f:
            for row in rows:
                f.write(json.dumps(row) + "\n")


if __name__ == "__main__":
    main()
