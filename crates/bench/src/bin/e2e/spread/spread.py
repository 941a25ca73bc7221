#!/usr/bin/env python3
"""Ten-seed spreads of the end-to-end metrics, the way the driver takes them.

    spread.py run <set.jsonl> <seed-base>   run every workload on seeds base+1..base+10
                                            with BENCHMARK.json's command; one line per run
    spread.py report <set.jsonl>...         per (workload, metric): median and the
                                            interquartile spread as a share of it; per
                                            metric: the widest spread, the bound the rule
                                            max(5 %, 2 x spread) asks for, and the bound
                                            BENCHMARK.json fixes

Run from the root of a checkout, on an otherwise idle machine.
"""
import collections
import json
import statistics
import subprocess
import sys

CAP = 0.25  # the driver accepts no bound above this


def contract():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(path, base):
    doc = contract()
    with open(path, "a") as out:
        for workload in (w["name"] for w in doc["workloads"]):
            for seed in range(base + 1, base + 11):
                argv = doc["command"] + ["--workload", workload, "--seed", str(seed)]
                argv += ["--seconds", str(doc["run_seconds"]), "--trace", "0"]
                done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
                last = done.stdout.strip().splitlines()[-1]
                line = {"workload": workload, "seed": seed, "exit": done.returncode}
                line["result"] = json.loads(last)
                out.write(json.dumps(line) + "\n")
                out.flush()


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(paths):
    doc = contract()
    widest = collections.defaultdict(float)
    for path in paths:
        values = collections.defaultdict(list)
        bad = 0
        with open(path) as f:
            for line in map(json.loads, f):
                result = line["result"]
                bad += line["exit"] != 0 or not result["correct"] or result["failed"] > 0
                for name, m in result["metrics"].items():
                    values[line["workload"], name].append(m["value"])
        print(f"{path}: {bad} runs failed or incorrect")
        for (workload, name), xs in values.items():
            s = spread(xs)
            widest[name] = max(widest[name], s)
            print(f"  {workload:13} {name:18} n={len(xs):2} median={statistics.median(xs):16.4f}"
                  f"  spread={100 * s:6.2f} %")
    print("metric              widest spread   rule max(5 %, 2 x spread)   BENCHMARK.json")
    for m in doc["end_to_end"]:
        s = widest[m["name"]]
        rule = max(0.05, 2 * s)
        capped = " (capped)" if rule > CAP else ""
        print(f"  {m['name']:18} {100 * s:10.2f} % {100 * min(rule, CAP):14.1f} %{capped:9}"
              f" {100 * m['bound']:14.1f} %")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "run":
        run(sys.argv[2], int(sys.argv[3]))
    elif len(sys.argv) >= 3 and sys.argv[1] == "report":
        report(sys.argv[2:])
    else:
        sys.exit(__doc__)
