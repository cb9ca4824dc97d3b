// Dynamic vs. exact vs. approximate measure maintenance over a trajectory
// frame sweep — the three tiers of viz::MeasureEngine, measured at the
// kernel level on the paper-scale 1000-residue RIN.
//
// Per frame switch a fraction of the edge set flips (thermal motion at a
// fixed cutoff). The medians land in BENCH_measures_dynamic.json:
//   - dynamic Betweenness (diff-maintained KADABRA sample set, bounds
//     stated) vs. the exact from-scratch CSR kernels;
//   - cold sampling per frame, for the warm-vs-cold comparison.
// Exact closeness has no dynamic arm: the engine serves it from the MS-BFS
// recompute that BM_FrameSweepExact/0 times.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench/bench_common.hpp"

#include "src/centrality/kadabra.hpp"
#include "src/dyn/dyn_kadabra.hpp"
#include "src/dyn/edge_batch.hpp"
#include "src/md/synthetic.hpp"
#include "src/md/trajectory.hpp"
#include "src/rin/dynamic_rin.hpp"
#include "src/support/timer.hpp"
#include "src/viz/measures.hpp"

namespace {

using namespace rinkit;

constexpr count kResidues = 1000;
constexpr count kFrames = 12;
constexpr double kCutoff = 4.5;

const md::Trajectory& sweepTrajectory() {
    static const md::Trajectory traj = [] {
        md::TrajectoryGenerator::Parameters gen;
        gen.frames = kFrames;
        // Gentle thermal motion: the paper's interactive scenario is a user
        // scrubbing adjacent frames at high temporal resolution, where a
        // handful of contacts flip per step (~0.1% of edges here). Default
        // parameters churn ~25% of the edge set per frame — a rebuild-sized
        // regime where every dynamic kernel loses and the engine's cost
        // model (diff fraction, EWMA timings) falls back to tier 1;
        // EXPERIMENTS.md records that crossover from a sigma sweep.
        gen.thermalSigma = 0.0005;
        gen.breathingAmplitude = 0.00005;
        return md::TrajectoryGenerator(gen).generate(md::helixBundle(kResidues));
    }();
    return traj;
}

double median(std::vector<double> xs) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
}

// Tier 1 baseline: from-scratch CSR kernel per frame.
void BM_FrameSweepExact(benchmark::State& state) {
    const auto measure = state.range(0) == 0 ? viz::Measure::Closeness
                                             : viz::Measure::Betweenness;
    rin::DynamicRin rin(sweepTrajectory(), rin::DistanceCriterion::MinimumAtomDistance,
                        kCutoff);
    std::vector<double> frameMs;
    index frame = 0;
    for (auto _ : state) {
        frame = (frame + 1) % kFrames;
        rin.setFrame(frame);
        Timer t;
        const auto v = CsrView::fromGraph(rin.graph());
        auto scores = viz::computeMeasure(rin.graph(), v, measure);
        frameMs.push_back(t.elapsedMs());
        benchmark::DoNotOptimize(scores.data());
    }
    state.SetLabel(measure == viz::Measure::Closeness ? "Closeness" : "Betweenness");
    state.counters["median_ms"] = median(frameMs);
    state.counters["nodes"] = static_cast<double>(rin.graph().numberOfNodes());
    state.counters["edges"] = static_cast<double>(rin.graph().numberOfEdges());
}

// Tier 2/3 hybrid, sampled kernel: the engine's actual warm betweenness
// path under a tolerance — the KADABRA sample set is primed once and then
// diff-maintained, redrawing only samples whose shortest-path DAG moved.
// Results carry the a-priori (eps, delta) bound at every frame.
void BM_FrameSweepDynamicSampled(benchmark::State& state) {
    const double eps = 0.05;
    rin::DynamicRin rin(sweepTrajectory(), rin::DistanceCriterion::MinimumAtomDistance,
                        kCutoff);
    dyn::DynKadabra dk;
    Timer ti;
    dk.init(CsrView::fromGraph(rin.graph()), eps, 0.1, 1);
    const double initMs = ti.elapsedMs();

    std::vector<double> frameMs;
    double resampled = 0.0, diffEdges = 0.0, totalEdges = 0.0, sweeps = 0.0;
    index frame = 0;
    for (auto _ : state) {
        frame = (frame + 1) % kFrames;
        const auto stats = rin.setFrame(frame);
        diffEdges += static_cast<double>(stats.edgesAdded + stats.edgesRemoved);
        totalEdges += static_cast<double>(stats.edgesTotal);
        sweeps += 1.0;
        const dyn::EdgeBatch batch{&rin.lastAdded(), &rin.lastRemoved()};
        Timer t;
        const auto v = CsrView::fromGraph(rin.graph());
        dk.update(v, batch);
        auto scores = dk.scores();
        frameMs.push_back(t.elapsedMs());
        resampled += static_cast<double>(dk.lastResampled());
        benchmark::DoNotOptimize(scores.data());
    }
    state.SetLabel("Betweenness");
    state.counters["median_ms"] = median(frameMs);
    state.counters["init_ms"] = initMs;
    state.counters["achieved_eps"] = dk.achievedEpsilon();
    state.counters["samples"] = static_cast<double>(dk.numberOfSamples());
    state.counters["resampled"] = sweeps == 0.0 ? 0.0 : resampled / sweeps;
    state.counters["diff_fraction"] =
        totalEdges == 0.0 ? 0.0 : diffEdges / totalEdges;
}

// Tier 3, cold: the adaptive KADABRA-style sampler from scratch per frame
// at eps = 0.05 — an (eps, delta) bound but no reuse.
void BM_FrameSweepApprox(benchmark::State& state) {
    const double eps = 0.05;
    rin::DynamicRin rin(sweepTrajectory(), rin::DistanceCriterion::MinimumAtomDistance,
                        kCutoff);
    std::vector<double> frameMs;
    double achievedEps = 0.0, samples = 0.0, runs = 0.0;
    index frame = 0;
    for (auto _ : state) {
        frame = (frame + 1) % kFrames;
        rin.setFrame(frame);
        Timer t;
        KadabraBetweenness kb(rin.graph(), eps, 0.1, 1 + frame);
        kb.run();
        achievedEps += kb.achievedEpsilon();
        samples += static_cast<double>(kb.numberOfSamples());
        benchmark::DoNotOptimize(kb.scores().data());
        frameMs.push_back(t.elapsedMs());
        runs += 1.0;
    }
    state.SetLabel("Betweenness");
    state.counters["median_ms"] = median(frameMs);
    state.counters["achieved_eps"] = runs == 0.0 ? 0.0 : achievedEps / runs;
    state.counters["samples"] = runs == 0.0 ? 0.0 : samples / runs;
}

BENCHMARK(BM_FrameSweepExact)->Args({0})->Args({1})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FrameSweepDynamicSampled)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FrameSweepApprox)->Unit(benchmark::kMillisecond);

} // namespace

RINKIT_BENCH_MAIN()
