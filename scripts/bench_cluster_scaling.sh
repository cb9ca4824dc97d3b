#!/usr/bin/env bash
# Regenerates BENCH_cluster_scaling.json: builds bench_cluster_scaling
# (release), runs every point live against real ReplicaSet fleets, and
# wraps the runs with the machine they ran on (nproc, OpenMP threads, git
# sha, date). Takes about 7 minutes on a 4-core box; keep the box otherwise
# idle, since every number is wall-clock.
#
# Usage: scripts/bench_cluster_scaling.sh [output.json]
#        (default: BENCH_cluster_scaling.json at the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_cluster_scaling.json}"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j --target bench_cluster_scaling

runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT
./build-release/bench/bench_cluster_scaling --json "$runs"

python3 - "$runs" "$out" "$(git describe --always --dirty --abbrev=40)" <<'PYEOF'
import datetime, json, os, sys

runs_path, out_path, sha = sys.argv[1:4]
runs = json.load(open(runs_path))
cost = next(r for r in runs if r["name"].startswith("BM_ClusterServiceCost") and r["name"].endswith("_median"))
doc = {
    "description": "Open-loop fleet scaling measured live: LoadGenerator::run() drives "
                   "a real ReplicaSet of single-worker SessionService replicas "
                   "(200-residue trajectory, 64 sticky sessions, 100 ms deadline) and "
                   "calls ReplicaSet::tick() every tick. See EXPERIMENTS.md, "
                   "'Fleet scaling on the live ReplicaSet'.",
    "machine": {
        "nproc": os.cpu_count(),
        "omp_max_threads": int(cost["counters"]["omp_max_threads"]),
        "sha": sha,
    },
    "date": datetime.date.today().isoformat(),
    "command": "scripts/bench_cluster_scaling.sh",
    "runs": runs,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"wrote {out_path}")
PYEOF
