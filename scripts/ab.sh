#!/usr/bin/env bash
# A/B the benchmark declared in BENCHMARK.json: this checkout (B) against
# a base revision (A), in interleaved ABBA pairs.
#
#   scripts/ab.sh [--pairs N] [--seconds S] [--workload W]... [--dir D] [BASE]
#
# BASE defaults to HEAD when the working tree has uncommitted changes,
# and to HEAD~1 otherwise. The base is exported with `git archive` into
# a side directory (D, or a temporary one removed on exit) and both
# sides are built before any run. Each pair runs A then B, or B then A
# on odd pairs, with the same seed on both sides: the BENCHMARK.json
# command plus `--workload W --seed <pair+1> --seconds S --trace 0`.
# Defaults: 5 pairs, the file's run_seconds, every declared workload.
#
# It prints, per workload and side, failed/attempted and each end-to-end
# metric's median [min-max] and interquartile range, the pairs where B
# beat A, and whether every serve reply-stream FNV and engine Summary
# FNV (printed by the benchmark on stderr) is equal on both sides. A
# run takes minutes: this is a tool for perf claims, not a CI step.
set -euo pipefail

repo=$(git rev-parse --show-toplevel)
cd "$repo"

pairs=5
seconds=
workloads=()
dir=
base=
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --dir) dir=$2; shift 2 ;;
    -h|--help) awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0"; exit 0 ;;
    -*) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
    *) base=$1; shift ;;
  esac
done
if [ -z "$base" ]; then
  if git diff --quiet HEAD; then base=HEAD~1; else base=HEAD; fi
fi
base_sha=$(git rev-parse --verify "$base^{commit}")

bench() { python3 -c "import json; d=json.load(open('BENCHMARK.json')); $1"; }
read -r -a command <<< "$(bench 'print(" ".join(d["command"]))')"
[ -n "$seconds" ] || seconds=$(bench 'print(d["run_seconds"])')
[ ${#workloads[@]} -gt 0 ] || read -r -a workloads <<< "$(bench 'print(" ".join(w["name"] for w in d["workloads"]))')"

if [ -z "$dir" ]; then
  dir=$(mktemp -d "${TMPDIR:-/tmp}/codar-ab.XXXXXX")
  trap 'rm -rf "$dir"' EXIT
fi
side_a="$dir/base"
out="$dir/runs"
rm -rf "$out"
mkdir -p "$out"
# A kept --dir that already holds this base keeps its build, too.
if [ "$(cat "$side_a/.ab-base" 2>/dev/null)" != "$base_sha" ]; then
  rm -rf "$side_a"
  mkdir -p "$side_a"
  git archive "$base_sha" | tar -x -C "$side_a"
  echo "$base_sha" > "$side_a/.ab-base"
fi
echo "A = $base ($base_sha), B = $repo (working tree)"
echo "$pairs pairs x ${#workloads[@]} workloads x ${seconds}s, logs in $out"

# Build both sides first, so no run pays for compilation: the command
# with `cargo run` as `cargo build` and without its trailing `--`.
build=()
for word in "${command[@]}"; do
  case "$word" in run) build+=(build) ;; --) ;; *) build+=("$word") ;; esac
done
for side in "$side_a" "$repo"; do
  echo "building $side"
  (cd "$side" && "${build[@]}")
done

run() { # side-label directory workload seed
  local log="$out/$3.$4.$1"
  (cd "$2" && "${command[@]}" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) \
    > "$log.json" 2> "$log.err" || echo "  $1 $3 seed $4 exited non-zero (see $log.err)"
}

for workload in "${workloads[@]}"; do
  for ((p = 0; p < pairs; p++)); do
    seed=$((p + 1))
    if ((p % 2 == 0)); then order="A B"; else order="B A"; fi
    for label in $order; do
      if [ "$label" = A ]; then side=$side_a; else side=$repo; fi
      echo "  $workload pair $((p + 1))/$pairs: $label"
      run "$label" "$side" "$workload" "$seed"
    done
  done
done

python3 - "$out" "$pairs" "${workloads[@]}" <<'EOF'
import json, re, statistics, sys

out, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
fnv_line = re.compile(r"(stream \d+ reply|seed \d+ +summary) fnv [0-9a-f]{16}")

def value(report, name):
    return report["metrics"][name]["value"]

def load(workload, seed, side):
    path = f"{out}/{workload}.{seed}.{side}"
    try:
        lines = open(path + ".json").read().strip().splitlines()
        report = json.loads(lines[-1])
    except (OSError, ValueError, IndexError):
        report = None
    fnvs = [m.group(0) for m in map(fnv_line.search, open(path + ".err")) if m]
    return report, fnvs

for workload in workloads:
    runs = {side: [load(workload, p + 1, side) for p in range(pairs)] for side in "AB"}
    print(f"\n{workload}")
    for side in "AB":
        reports = [r for r, _ in runs[side] if r]
        failed = sum(r["failed"] for r in reports)
        attempted = sum(r["attempted"] for r in reports)
        missing = pairs - len(reports)
        note = f", {missing} runs without a report" if missing else ""
        print(f"  {side}: failed/attempted {failed}/{attempted}{note}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        cols = []
        for side in "AB":
            values = [value(r, name) for r, _ in runs[side] if r and name in r["metrics"]]
            if values:
                q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                cols.append(f"{side} {q[1]:.4g} [{min(values):.4g}-{max(values):.4g}] "
                            f"IQR {q[2] - q[0]:.3g}")
        wins = sum(
            1
            for (a, _), (b, _) in zip(runs["A"], runs["B"])
            if a and b and name in a["metrics"]
            and (value(b, name) < value(a, name) if lower else value(b, name) > value(a, name))
        )
        print(f"  {name:<17} " + "  ".join(cols) + f"  B better {wins}/{pairs}")
    same = all(a[1] == b[1] and a[1] for a, b in zip(runs["A"], runs["B"]))
    print(f"  output FNVs equal on both sides for every seed: {'yes' if same else 'NO'}")
EOF
