#!/usr/bin/env bash
# Calibration and repeatability: runs every workload N times (default 5),
# each time with another seed, exactly as the driver runs it, and prints
# per metric x workload the median, min, max and the relative spread
# (first-to-third-quartile distance over the median, quartiles as
# Python's statistics.quantiles(values, n=4) gives them). Exits non-zero
# when an end-to-end metric's spread exceeds its bound in BENCHMARK.json
# (setup_s is reported but, as in the driver, not gated on spread), or
# when any run failed an op.
#
#   benchmark/repeat.sh [N] [first-seed] [workload ...]
#
# KVBENCH_TRACE=1 repeats the traced run (per-layer metrics, no gate).
set -euo pipefail
cd "$(dirname "$0")/.."

n="${1:-5}"
first="${2:-1}"
shift $(( $# < 2 ? $# : 2 ))
trace="${KVBENCH_TRACE:-0}"

exec python3 - "$n" "$first" "$trace" "$@" <<'EOF'
import json, statistics, subprocess, sys, time

n, first, trace = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
workloads = sys.argv[4:] or [w["name"] for w in bench["workloads"]]
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
seconds = str(bench["run_seconds"])

values, units, bad_runs = {}, {}, 0
for w in workloads:
    for seed in range(first, first + n):
        cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", trace]
        t0 = time.time()
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"{w} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        res = json.loads(lines[-1])
        invalid = [l for l in run.stderr.splitlines() if "INVALID RUN" in l]
        print(f"# {w} seed {seed}: {time.time() - t0:.1f} s, failed {res['failed']} of "
              f"{res['attempted']}" + (f"  [{len(invalid)} validity warning(s)]" if invalid else ""),
              flush=True)
        bad_runs += (not res["correct"])
        for name, m in res["metrics"].items():
            values.setdefault((w, name), []).append(m["value"])
            units[name] = m["unit"]

print()
print(f"| workload | metric | unit | median | min | max | spread | bound |")
print(f"|---|---|---|---:|---:|---:|---:|---:|")
over = []
for (w, name), v in values.items():
    med = statistics.median(v)
    spread = 0.0
    if len(v) >= 2 and med:
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / abs(med)
    bound = bounds.get(name)
    flag = ""
    if bound is not None and name != "setup_s" and spread > bound:
        over.append((w, name, spread, bound))
        flag = " **over**"
    print(f"| {w} | {name} | {units[name]} | {med:.6g} | {min(v):.6g} | {max(v):.6g} | "
          f"{spread:.3f}{flag} | {'' if bound is None else bound} |")

print()
print("Raw values, in seed order:")
for (w, name), v in values.items():
    if name in bounds:
        print(f"- {w} {name}: " + " ".join(f"{x:.6g}" for x in v))

for w, name, spread, bound in over:
    print(f"SPREAD OVER BOUND: {w} {name}: {spread:.3f} > {bound}", file=sys.stderr)
if bad_runs:
    print(f"{bad_runs} run(s) had failed ops", file=sys.stderr)
sys.exit(1 if over or bad_runs else 0)
EOF
