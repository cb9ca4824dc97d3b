// Ablation — exact (Brandes) vs adaptive-sampling (KADABRA) betweenness.
// Question from DESIGN.md: where does sampling win? Expected: exact is fine
// (single-digit ms) at RIN sizes — which is why the widget uses it — while
// approximation takes over for the larger plotlybridge-scale graphs.
#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"

#include "src/centrality/betweenness.hpp"
#include "src/centrality/kadabra.hpp"
#include "src/graph/generators.hpp"

namespace {

using namespace rinkit;

Graph testGraph(count n) {
    const double radius = std::cbrt(14.0 / static_cast<double>(n));
    return generators::randomGeometric3D(n, radius, 7);
}

void BM_BetweennessExact(benchmark::State& state) {
    const Graph g = testGraph(static_cast<count>(state.range(0)));
    const auto v = CsrView::fromGraph(g);
    for (auto _ : state) {
        Betweenness b(g, true);
        benchmark::DoNotOptimize(b.run(v).data());
    }
    state.counters["edges"] = static_cast<double>(g.numberOfEdges());
}

void BM_BetweennessApprox(benchmark::State& state) {
    const Graph g = testGraph(static_cast<count>(state.range(0)));
    const auto v = CsrView::fromGraph(g);
    for (auto _ : state) {
        KadabraBetweenness b(g, 0.05, 0.1, 99);
        benchmark::DoNotOptimize(b.run(v).data());
    }
    state.counters["edges"] = static_cast<double>(g.numberOfEdges());
}

BENCHMARK(BM_BetweennessExact)
    ->Unit(benchmark::kMillisecond)
    ->Arg(100)->Arg(500)->Arg(2000)->Arg(5000);
BENCHMARK(BM_BetweennessApprox)
    ->Unit(benchmark::kMillisecond)
    ->Arg(100)->Arg(500)->Arg(2000)->Arg(5000);

} // namespace

RINKIT_BENCH_MAIN()
