#!/usr/bin/env bash
# Alternating parent/change pairs of the benchmark, for the CHANGES.md
# evidence rule. The parent revision is exported with `git archive` into
# a temporary directory (removed on exit); the working tree is the
# change. The command and the run length come from BENCHMARK.json, and
# nothing under benchmark/ is touched.
#
#   tools/pair.sh [options] <parent-rev> <workload> [control ...]
#
#   --pairs N    pairs on <workload>, the claimed one (default 10); each
#                control gets 3
#   --seed S     first seed (default: one past the highest seed in
#                perf/HISTORY.jsonl, so every run sees unseen seeds)
#   --trace 0|1  passed to every run (default 0); 1 adds the per-layer
#                metrics to the table
#
# Both sides of a pair run the same seed; pair i runs the parent first
# when i is even and the change first when i is odd. A pair where
# either side prints kvbench's own `kvbench: INVALID RUN` verdict on
# stderr is not a pair: it is re-run, in the same order, on the next
# unseen seed, at most twice, and then dropped and printed. Each
# workload reports its `invalid_reruns`, and everything below counts
# valid pairs only. For each workload and metric it prints both sides'
# medians and quartiles, the pairs the change won (ties count for
# neither) and a verdict:
#   - on <workload>, "claim supported" when there are at least ten pairs,
#     the change wins at least nine tenths of them and the medians
#     differ, its way, by more than the parent's quartile distance; else
#     "no claim supported" ("too few pairs for a claim" below ten);
#   - on an end-to-end metric, "within bound" or "worse than bound" by the
#     metric's BENCHMARK.json bound on the medians, or "unresolved" when
#     the parent's own spread is wider than the bound and the change did
#     not read better in every run.
# Raw values follow, in pair order. One line per workload x metric is
# appended to perf/HISTORY.jsonl. Exits non-zero when a run fails or
# fails an operation.
set -euo pipefail
cd "$(dirname "$0")/.."

pairs=10 seed="" trace=0
while [[ $# -gt 0 && "$1" == --* ]]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        *) echo "unknown option $1" >&2; exit 2 ;;
    esac
done
if [[ $# -lt 2 ]]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
parent_rev="$(git rev-parse --verify "$1^{commit}")"
shift

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent_rev" | tar -x -C "$tmp/parent"

change_rev="$(git rev-parse --short HEAD)"
if [[ -n "$(git status --porcelain --untracked-files=no)" ]]; then
    change_rev="$change_rev+dirty"
fi

python3 - "$tmp/parent" "${parent_rev:0:7}" "$change_rev" "$pairs" "$seed" "$trace" "$@" \
    <<'EOF'
import json, math, os, statistics, subprocess, sys, time

parent_dir, parent_rev, change_rev, pairs, seed, trace = sys.argv[1:7]
workloads = sys.argv[7:]
pairs, control_pairs = int(pairs), 3
bench = json.load(open("BENCHMARK.json"))
command, seconds = bench["command"], str(bench["run_seconds"])
known = {w["name"] for w in bench["workloads"]}
for w in workloads:
    if w not in known:
        sys.exit(f"unknown workload {w}; BENCHMARK.json names {sorted(known)}")
better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
hist_path = "perf/HISTORY.jsonl"

def past_seeds():
    try:
        lines = open(hist_path).read().splitlines()
    except FileNotFoundError:
        return 0
    return max((json.loads(l)["seeds"][1] for l in lines if l.strip()), default=0)

first = int(seed) if seed else max(past_seeds() + 1, 20001)
trees = {"parent": parent_dir, "change": "."}

# Build both sides before any run, so no run pays for a build.
build = [("build" if a == "run" else a) for a in command if a != "--"]
for side, tree in trees.items():
    print(f"# building {side}", flush=True)
    subprocess.run(build, cwd=tree, check=True)

def run(side, workload, s):
    cmd = command + ["--workload", workload, "--seed", str(s),
                     "--seconds", seconds, "--trace", trace]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=trees[side], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{side} {workload} seed {s}: exit {out.returncode}\n{out.stderr[-2000:]}")
    res = json.loads(lines[-1])
    invalid = [l for l in out.stderr.splitlines() if l.startswith("kvbench: INVALID RUN")]
    print(f"# {workload} seed {s} {side}: {time.time() - t0:.1f} s, failed "
          f"{res['failed']} of {res['attempted']}"
          + "".join(f"\n#   {l}" for l in invalid), flush=True)
    return res, bool(invalid)

def quartiles(v):
    return statistics.quantiles(v, n=4) if len(v) >= 2 else [v[0], v[0], v[0]]

def host_tag():
    model = "unknown cpu"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{os.cpu_count()}x {model}"

rows, raw, bad, dropped = [], [], 0, []
reruns = {}  # workload -> pairs re-run because a side was INVALID RUN
s = first
for k, workload in enumerate(workloads):
    claimed = k == 0
    vals = {}  # metric -> {"parent": [...], "change": [...]}
    units = {}
    n = pairs if claimed else control_pairs
    start = s
    reruns[workload] = 0
    valid = 0
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for attempt in range(3):
            got = {}
            for side in order:
                res, invalid = run(side, workload, s)
                bad += res["failed"] > 0 or not res["correct"]
                got[side] = (res, invalid)
            s += 1
            if not any(invalid for _, invalid in got.values()):
                break
            if attempt < 2:
                reruns[workload] += 1
                print(f"# {workload} pair {i}: INVALID RUN on seed {s - 1}, re-run on seed {s}",
                      flush=True)
        else:
            dropped.append((workload, i, list(range(s - 3, s))))
            print(f"# {workload} pair {i}: INVALID RUN on seeds {s - 3}-{s - 1}, dropped",
                  flush=True)
            continue
        valid += 1
        for side, (res, _) in got.items():
            for name, m in res["metrics"].items():
                vals.setdefault(name, {"parent": [], "change": []})[side].append(m["value"])
                units[name] = m["unit"]
    seeds = (start, s - 1)
    n = valid
    if n == 0:
        continue
    for name, v in vals.items():
        p, c = v["parent"], v["change"]
        if len(p) != len(c):
            continue
        sign = -1 if better.get(name, "higher") == "lower" else 1
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        pmed, cmed = statistics.median(p), statistics.median(c)
        iqr = pq[2] - pq[0]
        verdict = ""
        if claimed and n < 10:
            verdict = "too few pairs for a claim"
        elif claimed:
            ok = wins >= math.ceil(0.9 * n) and sign * (cmed - pmed) > iqr
            verdict = "claim supported" if ok else "no claim supported"
        bound = bounds.get(name)
        bound_verdict = ""
        if bound is not None:
            worse = pmed and sign * (pmed - cmed) / abs(pmed) > bound
            spread = pmed and iqr / abs(pmed) > bound
            every_better = min(sign * x for x in c) > max(sign * x for x in p)
            if spread and not every_better:
                bound_verdict = "unresolved"
            else:
                bound_verdict = "worse than bound" if worse else "within bound"
        rows.append((workload, name, units[name], pmed, pq, cmed, cq, wins, n,
                     verdict, bound_verdict))
        raw.append((workload, name, p, c))
        os.makedirs(os.path.dirname(hist_path), exist_ok=True)
        with open(hist_path, "a") as f:
            f.write(json.dumps({
                "date": time.strftime("%Y-%m-%d"), "commit": change_rev,
                "parent": parent_rev, "workload": workload, "metric": name,
                "unit": units[name], "trace": int(trace), "n": n,
                "seeds": list(seeds), "median": cmed, "iqr": cq[2] - cq[0],
                "parent_median": pmed, "parent_iqr": iqr, "wins": wins,
                "verdict": verdict or bound_verdict, "host": host_tag(),
                "invalid_reruns": reruns[workload],
            }) + "\n")

print()
print(f"parent {parent_rev} vs change {change_rev}, {seconds} s runs, --trace {trace}, "
      f"seeds {first}-{s - 1}, host {host_tag()}")
print()
print("| workload | metric | unit | parent median [q1, q3] | change median [q1, q3] "
      "| change better | verdict |")
print("|---|---|---|---:|---:|---:|---|")
g = lambda x: f"{x:.6g}"
for (w, name, unit, pmed, pq, cmed, cq, wins, n, verdict, bound_verdict) in rows:
    text = "; ".join(x for x in (verdict, bound_verdict) if x)
    print(f"| {w} | {name} | {unit} | {g(pmed)} [{g(pq[0])}, {g(pq[2])}] "
          f"| {g(cmed)} [{g(cq[0])}, {g(cq[2])}] | {wins}/{n} | {text} |")
print()
print("invalid_reruns: " + ", ".join(f"{w} {r}" for w, r in reruns.items()))
for w, i, seeds_tried in dropped:
    print(f"dropped: {w} pair {i}, INVALID RUN on seeds {seeds_tried}")
print()
print("Raw values, in valid pair order (parent | change):")
for w, name, p, c in raw:
    print(f"- {w} {name}: " + " ".join(map(g, p)) + " | " + " ".join(map(g, c)))
if bad:
    print(f"{bad} run(s) failed operations or returned wrong results", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
