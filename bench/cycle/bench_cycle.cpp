// bench_cycle — one submit-to-patch benchmark of rinkit's interactive update
// cycle (the quantity the paper's Figs. 6-8 plot), driven through the real
// serve::SessionService and split by layer.
//
//   bench_cycle --workload <name> --seed <n> --seconds <s> [--trace <path>]
//   bench_cycle --self-test
//
// Every input is generated here from --workload and --seed: the trajectory
// (md::TrajectoryGenerator seeded with --seed) and the event schedule (a
// seeded rinkit::Rng). The load comes from this one process with two
// generator threads: the main thread submits on schedule, and a collector
// thread polls the outstanding futures every kPollUs. Each event is timed from
// outside the service, from when it was due until the collector saw its future
// resolve, so the tick latency includes queue wait, dispatch, the update cycle
// and the simulated client (real wire decode, modeled DOM cost).
//
// Without --trace the run reports the end-to-end metrics plus the serve-layer
// bookkeeping. With --trace it then replays the schedule layer by layer through
// the layers' public functions, records its own spans around each call (written
// to <path> as Chrome trace JSON), runs the 1/2/4-thread scaling sweep, and
// reports the per-layer metrics too. Outputs are checked along the way; any
// failed check makes the run exit 1.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "valid": bool,
//    "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}
// preceded by one "# info {...}" line with the run's configuration.

#include <omp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/community/plm.hpp"
#include "src/graph/csr_view.hpp"
#include "src/graph/generators.hpp"
#include "src/layout/coarsening.hpp"
#include "src/layout/maxent_stress.hpp"
#include "src/layout/multilevel_maxent_stress.hpp"
#include "src/md/synthetic.hpp"
#include "src/md/trajectory.hpp"
#include "src/obs/exporters.hpp"
#include "src/obs/slo.hpp"
#include "src/obs/tail_sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/rin/dynamic_rin.hpp"
#include "src/rin/rin_builder.hpp"
#include "src/serve/session_service.hpp"
#include "src/support/json.hpp"
#include "src/support/random.hpp"
#include "src/viz/client_model.hpp"
#include "src/viz/figure.hpp"
#include "src/viz/measures.hpp"
#include "src/viz/scene.hpp"
#include "src/viz/widget.hpp"
#include "src/wire/scene_frame.hpp"

namespace rinkit::cycle {
namespace {

using serve::RequestOutcome;
using serve::SessionId;
using serve::SliderEvent;
using EdgeList = std::vector<std::pair<node, node>>;

// ---------------------------------------------------------------------------
// Constants of the benchmark. Changing any of them changes the benchmark.

constexpr int kPollUs = 250;           ///< collector polling period
constexpr double kMaxLagP99Ms = 5.0;   ///< runs with a later driver are invalid
constexpr count kFrames = 16;          ///< trajectory length (frame slider range)
constexpr double kCutoffMin = 4.0;     ///< cutoff slider grid, in Angstrom
constexpr double kCutoffStep = 0.1;
constexpr int kCutoffTicks = 36;       ///< 4.0 .. 7.5
/// A run sets up until it has opened at least kSetupOpens sessions in at
/// least kMinSetups set-ups; setup_s is the median set-up.
constexpr count kSetupOpens = 9;
constexpr count kMinSetups = 3;
constexpr count kFleetSessions = 12;
constexpr int kCheckEvery = 25;        ///< explore: check every n-th timed tick
constexpr double kScoreTol = 1e-7;     ///< tests/test_dyn.cpp's exact-tier bound
constexpr double kDragIntervalMs = 50.0; ///< 20 Hz slider updates
constexpr double kDragPauseMs = 500.0;   ///< release pause between drags
constexpr count kDragReplayTicks = 150;
constexpr std::array<int, 3> kThreadSweep = {1, 2, 4};
constexpr count kRggNodes = 20000;
/// Radius at which randomGeometric3D's mean degree matches the 1000-residue
/// RIN at 4.5 A (about 7.4).
constexpr double kRggRadius = 0.0453;
constexpr double kSaturationWarmupSec = 0.5;
constexpr double kSaturationSec = 2.0;

/// R: closed-loop saturation throughput of the fleet-1000 sessions at 4
/// workers (scale.serve.w4_per_s), measured on a 4-vCPU Intel Xeon (median
/// of six runs, 73-95.5/s) and frozen, so that a faster program faces the
/// same offered load.
constexpr double kFleetSaturationPerSec = 90.0;

double cutoffAt(int tick) { return kCutoffMin + kCutoffStep * tick; }

double nowUs() {
    using namespace std::chrono;
    static const auto epoch = steady_clock::now();
    return duration<double, std::micro>(steady_clock::now() - epoch).count();
}

void sleepUntilUs(double us) {
    const double wait = us - nowUs();
    if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(wait));
}

/// Linear-interpolated percentile @p p in [0, 100] (0 for an empty sample).
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Machine-speed reference: time to sort a fixed array of 2^20 pseudo-random
/// doubles. It runs no rinkit code, so only the host can move it; runs taken
/// while the host was slower show a larger value.
double machineRefMs() {
    std::vector<double> v(1u << 20);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (double& d : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        d = static_cast<double>(x >> 11);
    }
    const double t0 = nowUs();
    std::sort(v.begin(), v.end());
    return (nowUs() - t0) / 1000.0;
}

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Metric name -> (value, unit), in insertion order.
class Metrics {
public:
    void set(const std::string& name, double value, const char* unit) {
        for (auto& m : items_) {
            if (m.name == name) {
                m.value = value;
                m.unit = unit;
                return;
            }
        }
        items_.push_back({name, value, unit});
    }

    void write(JsonWriter& w) const {
        w.beginObject();
        for (const auto& m : items_) {
            w.key(m.name).beginObject();
            w.kv("value", std::isfinite(m.value) ? m.value : 0.0);
            w.kv("unit", m.unit);
            w.endObject();
        }
        w.endObject();
    }

private:
    struct Item {
        std::string name;
        double value;
        const char* unit;
    };
    std::vector<Item> items_;
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Mode { Explore, Drag, Fleet };

struct Workload {
    const char* name;
    Mode mode;
    count residues;
    viz::WireFormat wire;
    bool speculate;
    bool lod;
    double limitMs; ///< latency limit a tick must meet to count as met
};

// Why these four: explore-1000 is the paper-faithful default path (dyn/
// measure tier, JSON render + JSON client model, empty queues); explore-4000
// is above dynStateMaxNodes, so every graph-moving tick runs the exact OpenMP
// kernels, on the binary wire; drag-1000 is the only workload where
// speculation, coalescing and LOD keyframes do work; fleet-1000 is the only
// one with contention (queue wait, admission, degrade ladder, obs stack).
const std::array<Workload, 4> kWorkloads = {{
    {"explore-1000", Mode::Explore, 1000, viz::WireFormat::Json, false, false, 250.0},
    {"explore-4000", Mode::Explore, 4000, viz::WireFormat::Binary, false, false, 250.0},
    {"drag-1000", Mode::Drag, 1000, viz::WireFormat::Binary, true, true, 50.0},
    {"fleet-1000", Mode::Fleet, 1000, viz::WireFormat::Binary, false, false, 250.0},
}};

viz::RinWidgetOptions widgetOptions(const Workload& w) {
    viz::RinWidgetOptions o;
    o.wireFormat = w.wire;
    o.speculate = w.speculate;
    o.lodScenes = w.lod;
    return o;
}

md::Trajectory makeTrajectory(count residues, std::uint64_t seed) {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = kFrames;
    gen.seed = seed;
    return md::TrajectoryGenerator(gen).generate(md::helixBundle(residues));
}

/// One lap of the paper's Figs. 6-8 script: a 15-tick frame sweep (Fig. 8),
/// the cutoff sweep 4.0 -> 7.5 -> 4.0 A in 0.1 A steps (Fig. 7), then all 13
/// measures and back to Closeness (Fig. 6). Laps alternate the frame-sweep
/// direction so that every frame tick moves the slider.
std::vector<SliderEvent> exploreLap(bool framesForward) {
    std::vector<SliderEvent> lap;
    for (count i = 1; i < kFrames; ++i)
        lap.push_back(SliderEvent::setFrame(framesForward ? i : kFrames - 1 - i));
    for (int k = 1; k < kCutoffTicks; ++k) lap.push_back(SliderEvent::setCutoff(cutoffAt(k)));
    for (int k = kCutoffTicks - 2; k >= 0; --k)
        lap.push_back(SliderEvent::setCutoff(cutoffAt(k)));
    for (viz::Measure m : viz::allMeasures()) lap.push_back(SliderEvent::setMeasure(m));
    lap.push_back(SliderEvent::setMeasure(viz::Measure::Closeness));
    return lap;
}

/// Untimed warm-up before the first explore lap: the first frame sweep,
/// then the cutoff to the lap's starting point.
std::vector<SliderEvent> exploreWarmup() {
    std::vector<SliderEvent> events;
    for (count i = 1; i < kFrames; ++i) events.push_back(SliderEvent::setFrame(i));
    events.push_back(SliderEvent::setCutoff(cutoffAt(0)));
    return events;
}

/// Endless explore script (laps with alternating frame direction), starting
/// @p offset events into the first lap.
class ExploreScript {
public:
    explicit ExploreScript(std::size_t offset = 0) : lap_(exploreLap(false)), pos_(offset) {}

    SliderEvent next() {
        if (pos_ >= lap_.size()) {
            forward_ = !forward_;
            lap_ = exploreLap(forward_);
            pos_ = 0;
        }
        return lap_[pos_++];
    }

    bool atLapEnd() const { return pos_ == lap_.size(); }
    std::size_t lapSize() const { return lap_.size(); }

private:
    std::vector<SliderEvent> lap_;
    std::size_t pos_;
    bool forward_ = false;
};

/// One scheduled open-loop event (or a quiesce-and-check point).
struct Planned {
    double atMs = 0.0; ///< due time, from the start of the measured phase
    count session = 0; ///< index into the run's session list
    SliderEvent event;
    int phase = 0;
    bool checkpoint = false;
};

template <typename T, std::size_t N>
void shuffle(std::array<T, N>& a, Rng& rng) {
    for (std::size_t i = N; i > 1; --i) std::swap(a[i - 1], a[rng.integer(i)]);
}

/// Drag lengths in ticks of one drag cycle, per slider. The seed orders
/// them; their sums, and so each cycle's mix of work, are fixed.
constexpr std::array<count, 4> kFrameDragTicks = {8, 15, 23, 30};
constexpr std::array<count, 3> kCutoffDragTicks = {12, 19, 26};

/// drag-1000: one user dragging sliders at 20 Hz without waiting for
/// replies, in whole cycles of eight gestures (as many as come nearest to
/// @p seconds, at least one).
/// A cycle is frame, cutoff, frame, cutoff, frame, cutoff and frame drags,
/// then a 4.5 <-> 7.5 A click-jump in place of the 8th drag (forces a
/// keyframe). Drags are monotone; a frame drag reverses with probability 0.3
/// at its start, and both sliders reverse at their ends. Cutoff drags never
/// reverse mid-range, so every seed visits the same cutoffs, whose cost grows
/// fourfold from 4.0 to 7.5 A. Each drag is followed by a 500 ms release
/// pause ending in a checkpoint; in 4 of a cycle's 8 pauses (seeded) the
/// measure flips to Degree and back to Closeness.
std::vector<Planned> dragPlan(std::uint64_t seed, double seconds) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
    std::vector<Planned> plan;
    double t = 0.0;
    count frame = 0;
    int cutTick = 5; // 4.5 A, the widget's initial cutoff
    int frameDir = 1, cutDir = 1;
    const auto push = [&](SliderEvent e) {
        Planned p;
        p.atMs = t;
        p.event = e;
        plan.push_back(p);
        t += kDragIntervalMs;
    };
    count ticksPerCycle = 1; // the click-jump
    for (count n : kFrameDragTicks) ticksPerCycle += n;
    for (count n : kCutoffDragTicks) ticksPerCycle += n;
    const double cycleMs = static_cast<double>(ticksPerCycle) * kDragIntervalMs + 8 * kDragPauseMs;
    const long cycles = std::max(1L, std::lround(seconds * 1000.0 / cycleMs));
    for (long c = 0; c < cycles; ++c) {
        auto frameTicks = kFrameDragTicks;
        auto cutoffTicks = kCutoffDragTicks;
        std::array<bool, 8> flips = {true, true, true, true, false, false, false, false};
        shuffle(frameTicks, rng);
        shuffle(cutoffTicks, rng);
        shuffle(flips, rng);
        for (std::size_t g = 0; g < 8; ++g) {
            if (g == 7) {
                cutTick = cutoffAt(cutTick) >= 6.0 ? 5 : kCutoffTicks - 1;
                push(SliderEvent::setCutoff(cutoffAt(cutTick)));
            } else if (g % 2 == 0) {
                if (rng.real01() < 0.3) frameDir = -frameDir;
                for (count i = 0; i < frameTicks[g / 2]; ++i) {
                    const auto f = static_cast<std::int64_t>(frame) + frameDir;
                    if (f < 0 || f >= static_cast<std::int64_t>(kFrames)) frameDir = -frameDir;
                    frame = static_cast<count>(static_cast<std::int64_t>(frame) + frameDir);
                    push(SliderEvent::setFrame(frame));
                }
            } else {
                for (count i = 0; i < cutoffTicks[g / 2]; ++i) {
                    if (cutTick + cutDir < 0 || cutTick + cutDir >= kCutoffTicks) cutDir = -cutDir;
                    cutTick += cutDir;
                    push(SliderEvent::setCutoff(cutoffAt(cutTick)));
                }
            }
            const double pause = t;
            if (flips[g]) {
                push(SliderEvent::setMeasure(viz::Measure::Degree));
                t += kDragIntervalMs;
                push(SliderEvent::setMeasure(viz::Measure::Closeness));
            }
            Planned check;
            check.atMs = pause + 200.0;
            check.checkpoint = true;
            plan.push_back(check);
            t = pause + kDragPauseMs;
        }
    }
    return plan;
}

/// fleet-1000: Poisson arrivals over kFleetSessions explore scripts, 0.7 R
/// for the first half of the run ("steady", phase 0) and 1.5 R for the
/// second ("spike", phase 1). The mix of work is held fixed across seeds:
/// each phase gets exactly rate x duration arrivals at sorted uniform times
/// (a Poisson process conditioned on its count); the scripts start evenly
/// spaced around the lap (the seed rotates them), so at any moment the
/// sessions cover the whole lap; and arrivals go to sessions in shuffled
/// rounds, so every session gets the same number of events.
std::vector<Planned> fleetPlan(std::uint64_t seed, double seconds, double ratePerSec) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 23);
    std::vector<ExploreScript> scripts;
    const std::size_t lapSize = ExploreScript().lapSize();
    const std::size_t rotation = rng.integer(lapSize);
    for (count s = 0; s < kFleetSessions; ++s)
        scripts.emplace_back((rotation + s * lapSize / kFleetSessions) % lapSize);
    std::array<count, kFleetSessions> round{};
    for (count s = 0; s < kFleetSessions; ++s) round[s] = s;
    std::vector<Planned> plan;
    const double halfMs = seconds * 500.0;
    for (int phase = 0; phase < 2; ++phase) {
        const double rate = ratePerSec * (phase == 0 ? 0.7 : 1.5);
        std::vector<double> times(static_cast<std::size_t>(std::lround(rate * halfMs / 1000.0)));
        for (double& t : times) t = (phase + rng.real01()) * halfMs;
        std::sort(times.begin(), times.end());
        for (double t : times) {
            if (plan.size() % kFleetSessions == 0) shuffle(round, rng);
            Planned p;
            p.atMs = t;
            p.phase = phase;
            p.session = round[plan.size() % kFleetSessions];
            p.event = scripts[p.session].next();
            plan.push_back(p);
        }
    }
    return plan;
}

// ---------------------------------------------------------------------------
// Correctness checks.

/// Empty when @p got equals @p want, else what differs.
std::string compareEdges(const EdgeList& got, const EdgeList& want, const char* what) {
    if (got == want) return {};
    return std::string(what) + ": " + std::to_string(got.size()) + " edges, reference has " +
           std::to_string(want.size());
}

std::string compareScores(const std::vector<double>& got, const std::vector<double>& want,
                          double tol) {
    if (got.size() != want.size())
        return "scores: size " + std::to_string(got.size()) + " vs " +
               std::to_string(want.size());
    double worst = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i)
        worst = std::max(worst, std::abs(got[i] - want[i]));
    if (worst <= tol) return {};
    return "scores: max |diff| " + std::to_string(worst) + " above " + std::to_string(tol);
}

/// Community detectors run parallel local moving, whose result depends on
/// thread interleaving, so their scores are checked for a well-formed
/// partition (integer ids in [0, n)) rather than against a fresh run.
std::string checkPartition(const std::vector<double>& got, count n) {
    if (got.size() != n) return "partition: wrong size";
    for (double id : got) {
        if (id < 0.0 || id >= static_cast<double>(n) || id != std::floor(id))
            return "partition: invalid community id " + std::to_string(id);
    }
    return {};
}

/// Checks one widget's visible state against from-scratch references: the
/// edge set against RinBuilder::build at the same frame and cutoff, exact
/// and dynamic-tier scores against computeMeasure on a fresh CsrView, and
/// (binary wire) the client's decoded edges against the graph. Returns the
/// failures.
std::vector<std::string> checkWidget(const viz::RinWidget& w, const md::Trajectory& traj,
                                     viz::ResolutionTier tier) {
    std::vector<std::string> failures;
    const auto note = [&](std::string s) {
        if (!s.empty()) failures.push_back(std::move(s));
    };
    const Graph& g = w.graph();
    const EdgeList edges = g.edges();
    const Graph ref = rin::RinBuilder(w.options().criterion).build(traj.proteinAtFrame(w.frame()),
                                                                  w.cutoff());
    note(compareEdges(edges, ref.edges(), "edge set vs RinBuilder::build"));
    if (w.measure() &&
        (tier == viz::ResolutionTier::Exact || tier == viz::ResolutionTier::Dynamic)) {
        if (viz::isCommunityMeasure(*w.measure())) {
            note(checkPartition(w.scores(), g.numberOfNodes()));
        } else {
            note(compareScores(w.scores(),
                               viz::computeMeasure(g, CsrView::fromGraph(g), *w.measure()),
                               kScoreTol));
        }
    }
    if (w.options().wireFormat == viz::WireFormat::Binary)
        note(compareEdges(w.wireClient().edges(), edges, "decoded wire edges vs graph"));
    return failures;
}

/// Feeds the checker a state that is correct, one with a perturbed score,
/// and one with a dropped edge; the first must pass, the other two fail.
int selfTest() {
    md::TrajectoryGenerator::Parameters gen;
    gen.frames = 3;
    const auto traj = md::TrajectoryGenerator(gen).generate(md::helixBundle(300));
    viz::RinWidgetOptions opts;
    opts.wireFormat = viz::WireFormat::Binary;
    viz::RinWidget widget(traj, opts);
    widget.setFrame(1);
    widget.setCutoff(5.0);

    const auto clean = checkWidget(widget, traj, viz::ResolutionTier::Exact);
    const Graph& g = widget.graph();
    const auto fresh = viz::computeMeasure(g, CsrView::fromGraph(g), viz::Measure::Closeness);
    std::vector<double> perturbed = widget.scores();
    perturbed[perturbed.size() / 2] += 1e-3;
    EdgeList dropped = g.edges();
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(dropped.size() / 2));

    const bool scoreRejected = !compareScores(perturbed, fresh, kScoreTol).empty();
    const bool edgeRejected = !compareEdges(dropped, g.edges(), "dropped edge").empty();
    std::printf("self-test: clean state %s, perturbed score %s, dropped edge %s\n",
                clean.empty() ? "passes" : "FAILS", scoreRejected ? "rejected" : "ACCEPTED",
                edgeRejected ? "rejected" : "ACCEPTED");
    for (const auto& f : clean) std::printf("  %s\n", f.c_str());
    return clean.empty() && scoreRejected && edgeRejected ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Load generation: the driver (main thread) and the collector thread.

/// Raises the calling thread to SCHED_FIFO priority 1 for the scope's
/// lifetime, so that the generator keeps its schedule while the workers
/// saturate every core. Threads created meanwhile inherit the policy, which
/// is why the scope covers only the measured phase, when the service workers
/// and the main thread's OpenMP team already exist; the Collector is created
/// inside it and inherits it. Without the privilege the run goes on at normal
/// priority, and the lag rule judges it.
class RealtimeScope {
public:
    RealtimeScope() {
        sched_param param{};
        param.sched_priority = 1;
        raised_ = pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) == 0;
    }

    ~RealtimeScope() {
        if (!raised_) return;
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_OTHER, &param);
    }

    RealtimeScope(const RealtimeScope&) = delete;
    RealtimeScope& operator=(const RealtimeScope&) = delete;

    bool raised() const { return raised_; }

private:
    bool raised_ = false;
};

/// One submitted event as the load generator saw it.
struct Tick {
    count session = 0;
    SliderEvent::Kind kind = SliderEvent::Kind::Refresh;
    int phase = 0;
    double dueUs = 0.0;     ///< when the event was due (clock start)
    double submitUs = 0.0;  ///< when the driver submitted it
    double resolveUs = 0.0; ///< when the collector saw its future resolve
    RequestOutcome outcome;

    double latencyMs() const { return (resolveUs - dueUs) / 1000.0; }
    double lagMs() const { return (submitUs - dueUs) / 1000.0; }
};

/// The second generator thread: every kPollUs it polls each outstanding
/// future and stamps the time it saw the future resolve.
class Collector {
public:
    Collector() : thread_([this] { loop(); }) {}

    ~Collector() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        thread_.join();
    }

    Collector(const Collector&) = delete;
    Collector& operator=(const Collector&) = delete;

    /// Tracks a submitted tick; returns its index.
    std::size_t track(const Tick& tick, std::future<RequestOutcome> future) {
        std::lock_guard<std::mutex> lock(mutex_);
        ticks_.push_back(tick);
        resolved_.push_back(false);
        pending_.emplace_back(ticks_.size() - 1, std::move(future));
        return ticks_.size() - 1;
    }

    /// Blocks until tick @p i resolved; returns its resolution time.
    double waitFor(std::size_t i) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return resolved_[i]; });
        return ticks_[i].resolveUs;
    }

    /// Blocks until @p ready holds for the resolution flags.
    void waitUntil(const std::function<bool(const std::vector<bool>&)>& ready) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return ready(resolved_); });
    }

    void waitAll() {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return pending_.empty(); });
    }

    std::vector<Tick> ticks() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return ticks_;
    }

    /// Mean observed polling period in ms (the timing granularity).
    double meanPollMs() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return polls_ == 0 ? 0.0 : pollSumUs_ / static_cast<double>(polls_) / 1000.0;
    }

private:
    void loop() {
        double last = nowUs();
        while (true) {
            std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
            bool any = false;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (stop_) return;
                const double now = nowUs();
                ++polls_;
                pollSumUs_ += now - last;
                last = now;
                for (std::size_t k = 0; k < pending_.size();) {
                    auto& [i, future] = pending_[k];
                    if (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
                        ++k;
                        continue;
                    }
                    ticks_[i].resolveUs = nowUs();
                    ticks_[i].outcome = future.get();
                    resolved_[i] = true;
                    pending_[k] = std::move(pending_.back());
                    pending_.pop_back();
                    any = true;
                }
            }
            if (any) cv_.notify_all();
        }
    }

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Tick> ticks_;
    std::vector<bool> resolved_;
    std::vector<std::pair<std::size_t, std::future<RequestOutcome>>> pending_;
    bool stop_ = false;
    count polls_ = 0;
    double pollSumUs_ = 0.0;
    std::thread thread_; // last: started after every member it uses
};

/// Everything one measured run produced.
struct RunResult {
    std::vector<Tick> ticks;                ///< the measured (timed) ticks
    std::vector<double> setupSec;           ///< one per set-up
    serve::MetricsSnapshot before, after;   ///< service counters around the measured phase
    double measuredSec = 0.0;               ///< window goodput is counted over
    double pollMs = 0.0;
    double retainedFrac = 0.0;
    count workers = 0;
    bool realtime = false; ///< the generator threads got SCHED_FIFO
    std::vector<std::string> failures;
};

serve::SessionServiceOptions serviceOptions(count workers) {
    serve::SessionServiceOptions o;
    const count nproc = std::max(1u, std::thread::hardware_concurrency());
    o.budget.cpuMillis = 1000 * nproc; // a pod sized to this box
    o.workers = workers;
    return o;
}

/// Opens @p sessions sessions, repeatedly (closing the earlier set), and
/// records each set-up's time from the first openSession until every initial
/// scene is shipped (openSession returns after the widget's first update).
/// Then warms every worker up, untimed: each session steps away from its
/// initial state and back, so the workers' OpenMP teams and allocator arenas
/// exist before the measured phase.
std::vector<SessionId> setUp(serve::SessionService& service, const md::Trajectory& traj,
                             const viz::RinWidgetOptions& opts, count sessions,
                             std::vector<double>& setupSec) {
    std::vector<SessionId> ids;
    const count setups = std::max(kMinSetups, (kSetupOpens + sessions - 1) / sessions);
    for (count r = 0; r < setups; ++r) {
        for (SessionId id : ids) service.closeSession(id);
        ids.clear();
        const double t0 = nowUs();
        for (count s = 0; s < sessions; ++s) ids.push_back(service.openSession(traj, opts));
        setupSec.push_back((nowUs() - t0) / 1e6);
    }
    const SliderEvent warmup[] = {
        SliderEvent::setFrame(1), SliderEvent::setCutoff(cutoffAt(6)),
        SliderEvent::setMeasure(viz::Measure::Degree), SliderEvent::setFrame(opts.initialFrame),
        SliderEvent::setCutoff(opts.initialCutoff),
        SliderEvent::setMeasure(opts.initialMeasure.value_or(viz::Measure::Closeness))};
    for (const SliderEvent& e : warmup) {
        std::vector<std::future<RequestOutcome>> pending;
        for (SessionId id : ids) pending.push_back(service.submit(id, e));
        for (auto& f : pending) f.get();
    }
    service.drain();
    service.waitSpeculationIdle();
    return ids;
}

/// The outcome tier of the last tick of @p session (what its scores are).
viz::ResolutionTier lastTier(const std::vector<Tick>& ticks, count session) {
    for (auto it = ticks.rbegin(); it != ticks.rend(); ++it)
        if (it->session == session && it->outcome.accepted()) return it->outcome.timing.measureTier;
    return viz::ResolutionTier::Exact;
}

void addFailures(RunResult& r, std::vector<std::string> f) {
    r.failures.insert(r.failures.end(), f.begin(), f.end());
}

/// explore-*: one user, closed loop, in whole laps (so every run has the
/// same mix of events), at least @p minLaps, stopping at the lap end nearest
/// to @p seconds of measured time. Each event is due the moment the collector
/// saw the previous one resolve (or a check finished). @p afterLap, if set,
/// runs untimed after every lap while the service is drained.
RunResult runExplore(const Workload& w, const md::Trajectory& traj, double seconds,
                     const std::function<void()>& afterLap, int minLaps) {
    RunResult r;
    serve::SessionService service(serviceOptions(0));
    r.workers = service.workerCount();
    const SessionId id = setUp(service, traj, widgetOptions(w), 1, r.setupSec).front();
    for (const auto& e : exploreWarmup()) service.submit(id, e).get();

    RealtimeScope realtime;
    Collector collector;
    r.realtime = realtime.raised();
    r.before = service.metrics();
    const double t0 = nowUs();
    double pausedUs = 0.0; // checks and afterLap: not measured
    double due = t0;
    ExploreScript script;
    int timed = 0;
    for (int laps = 1;; ++laps) {
        do {
            const SliderEvent e = script.next();
            Tick tick;
            tick.kind = e.kind;
            tick.dueUs = due;
            tick.submitUs = nowUs();
            due = collector.waitFor(collector.track(tick, service.submit(id, e)));
            if (++timed % kCheckEvery == 0 || script.atLapEnd()) {
                const double c0 = nowUs();
                service.drain();
                addFailures(r, checkWidget(*service.sessionWidget(id), traj,
                                           lastTier(collector.ticks(), 0)));
                if (script.atLapEnd() && afterLap) afterLap();
                due = nowUs();
                pausedUs += due - c0;
            }
        } while (!script.atLapEnd());
        const double measured = nowUs() - t0 - pausedUs;
        if (laps >= minLaps && measured + measured / laps / 2.0 >= seconds * 1e6) break;
    }
    collector.waitAll();
    service.drain();
    r.after = service.metrics();
    r.ticks = collector.ticks();
    // Closed loop: each tick is due when the previous one resolved, so the
    // measured time (without checks and afterLap) is the sum of latencies.
    for (const Tick& t : r.ticks) r.measuredSec += t.latencyMs() / 1000.0;
    r.pollMs = collector.meanPollMs();
    return r;
}

/// Submits @p plan open-loop: each event at its due time regardless of how
/// the service is coping. @p checkpoint runs at checkpoint entries.
void drive(serve::SessionService& service, Collector& collector, const std::vector<SessionId>& ids,
           const std::vector<Planned>& plan, double t0, const std::function<void()>& checkpoint) {
    for (const Planned& p : plan) {
        if (p.checkpoint) {
            checkpoint();
            continue;
        }
        const double due = t0 + p.atMs * 1000.0;
        sleepUntilUs(due);
        Tick tick;
        tick.session = p.session;
        tick.kind = p.event.kind;
        tick.phase = p.phase;
        tick.dueUs = due;
        tick.submitUs = nowUs();
        collector.track(tick, service.submit(ids[p.session], p.event));
    }
}

/// drag-1000: open loop at 20 Hz, checked in the release pauses once the
/// service and its speculation are idle.
RunResult runDrag(const Workload& w, const md::Trajectory& traj, std::uint64_t seed,
                  double seconds) {
    RunResult r;
    serve::SessionService service(serviceOptions(0));
    r.workers = service.workerCount();
    const auto ids = setUp(service, traj, widgetOptions(w), 1, r.setupSec);
    const auto plan = dragPlan(seed, seconds);

    RealtimeScope realtime;
    Collector collector;
    r.realtime = realtime.raised();
    r.before = service.metrics();
    const double t0 = nowUs() + 1000.0;
    drive(service, collector, ids, plan, t0, [&] {
        collector.waitAll();
        service.drain();
        service.waitSpeculationIdle();
        addFailures(r, checkWidget(*service.sessionWidget(ids[0]), traj,
                                   lastTier(collector.ticks(), 0)));
    });
    collector.waitAll();
    service.drain();
    service.waitSpeculationIdle();
    r.after = service.metrics();
    r.ticks = collector.ticks();
    r.measuredSec = (plan.back().atMs + kDragPauseMs - 200.0) / 1000.0; // to the last pause's end
    r.pollMs = collector.meanPollMs();
    return r;
}

/// fleet-1000: kFleetSessions sessions on one instance with the production
/// stack (250 ms default deadline, SLO engine and tail sampler wired as in
/// examples/cloud_session.cpp), open-loop Poisson arrivals.
RunResult runFleet(const Workload& w, const md::Trajectory& traj, std::uint64_t seed,
                   double seconds) {
    RunResult r;
    obs::Tracer::global().setEnabled(true);
    obs::Tracer::global().setSampleEvery(0);
    auto sampler = std::make_shared<obs::TailSampler>();
    sampler->install();
    {
        serve::SessionServiceOptions o = serviceOptions(0);
        o.defaultDeadlineMs = 250.0;
        o.slo = std::make_shared<obs::SloEngine>();
        o.tailSampler = sampler;
        serve::SessionService service(o);
        r.workers = service.workerCount();
        const auto ids = setUp(service, traj, widgetOptions(w), kFleetSessions, r.setupSec);
        const auto plan = fleetPlan(seed, seconds, kFleetSaturationPerSec);

        RealtimeScope realtime;
        Collector collector;
        r.realtime = realtime.raised();
        r.before = service.metrics();
        drive(service, collector, ids, plan, nowUs() + 1000.0, [] {});
        collector.waitAll();
        service.drain();
        r.after = service.metrics();
        r.ticks = collector.ticks();
        r.measuredSec = seconds / 2.0; // goodput counts the spike phase
        r.pollMs = collector.meanPollMs();

        const auto& c = r.after;
        const count lhs = c.counter("submitted");
        const count rhs = c.counter("completed") + c.counter("coalesced") + c.counter("rejected");
        if (lhs != rhs)
            r.failures.push_back("accounting: submitted " + std::to_string(lhs) +
                                 " != completed + coalesced + rejected " + std::to_string(rhs));
        // Final state: one exact read per session, then the full check.
        for (count s = 0; s < ids.size(); ++s) {
            const auto outcome =
                service.submit(ids[s], SliderEvent::setMeasure(viz::Measure::Closeness)).get();
            service.drain();
            addFailures(r, checkWidget(*service.sessionWidget(ids[s]), traj,
                                       outcome.timing.measureTier));
        }
        const auto stats = sampler->stats();
        r.retainedFrac = ratio(static_cast<double>(stats.retainedTotal()),
                               static_cast<double>(stats.finished));
    }
    sampler->uninstall();
    obs::Tracer::global().setEnabled(false);
    obs::Tracer::global().setSampleEvery(1);
    return r;
}

/// Closed-loop saturation throughput of the fleet sessions at @p workers
/// workers: every session keeps one event outstanding and submits its next
/// script event the moment the previous one resolved. No deadline, so the
/// degrade ladder never makes saturated ticks cheaper.
double saturationPerSec(const md::Trajectory& traj, count workers, std::uint64_t seed) {
    serve::SessionService service(serviceOptions(workers));
    viz::RinWidgetOptions opts;
    opts.wireFormat = viz::WireFormat::Binary;
    std::vector<SessionId> ids;
    for (count s = 0; s < kFleetSessions; ++s) ids.push_back(service.openSession(traj, opts));
    Rng rng(seed + 31);
    std::vector<ExploreScript> scripts;
    for (count s = 0; s < kFleetSessions; ++s)
        scripts.emplace_back(rng.integer(ExploreScript().lapSize()));

    Collector collector;
    std::vector<std::size_t> last(kFleetSessions);
    const auto submit = [&](count s) {
        const SliderEvent e = scripts[s].next();
        Tick tick;
        tick.session = s;
        tick.kind = e.kind;
        tick.dueUs = tick.submitUs = nowUs();
        last[s] = collector.track(tick, service.submit(ids[s], e));
    };
    for (count s = 0; s < kFleetSessions; ++s) submit(s);
    const double startUs = nowUs() + kSaturationWarmupSec * 1e6;
    const double endUs = startUs + kSaturationSec * 1e6;
    while (nowUs() < endUs) {
        std::vector<count> idle;
        collector.waitUntil([&](const std::vector<bool>& resolved) {
            idle.clear();
            for (count s = 0; s < kFleetSessions; ++s)
                if (resolved[last[s]]) idle.push_back(s);
            return !idle.empty();
        });
        for (count s : idle) submit(s);
    }
    collector.waitAll();
    service.drain();
    count done = 0;
    for (const Tick& t : collector.ticks())
        if (t.resolveUs >= startUs && t.resolveUs < endUs) ++done;
    return static_cast<double>(done) / kSaturationSec;
}

// ---------------------------------------------------------------------------
// End-to-end and serve-layer metrics of a run.

double counterDelta(const RunResult& r, const std::string& name) {
    return static_cast<double>(r.after.counter(name) - r.before.counter(name));
}

/// How late the driver submitted, p99 over the run's ticks.
double lagP99Ms(const RunResult& r) {
    std::vector<double> lag;
    for (const Tick& t : r.ticks) lag.push_back(t.lagMs());
    return percentile(lag, 99.0);
}

/// Latency percentiles are over phase 0, i.e. at the one rate of the open-
/// and closed-loop single-user workloads and at fleet-1000's steady 0.7 R;
/// goodput counts the last phase (fleet-1000's spike).
void reportRun(const Workload& w, const RunResult& r, Metrics& m) {
    std::vector<double> lat, spike, queue, dispatch;
    std::map<SliderEvent::Kind, std::vector<double>> byKind;
    double met = 0.0, good = 0.0, degraded = 0.0, failed = 0.0, moving = 0.0;
    for (const Tick& t : r.ticks) {
        if (t.kind != SliderEvent::Kind::Measure) moving += 1.0;
        if (!t.outcome.accepted()) {
            failed += 1.0;
            continue;
        }
        const double ms = t.latencyMs();
        if (t.phase == 0) {
            lat.push_back(ms);
            byKind[t.kind].push_back(ms);
        } else {
            spike.push_back(ms);
        }
        queue.push_back(t.outcome.queueMs);
        if (t.outcome.coalescedEvents == 0)
            dispatch.push_back(ms - t.outcome.queueMs - t.outcome.timing.totalMs());
        if (ms <= w.limitMs) met += 1.0;
        if (t.outcome.degraded()) degraded += 1.0;
        const bool counted = w.mode != Mode::Fleet || t.phase == 1;
        if (counted && ms <= w.limitMs && !t.outcome.degraded()) good += 1.0;
    }
    const auto n = static_cast<double>(r.ticks.size());

    m.set("setup_s", median(r.setupSec), "s");
    m.set("tick_p50_ms", percentile(lat, 50.0), "ms");
    m.set("tick_p95_ms", percentile(lat, 95.0), "ms");
    m.set("frame_tick_p50_ms", median(byKind[SliderEvent::Kind::Frame]), "ms");
    m.set("cutoff_tick_p50_ms", median(byKind[SliderEvent::Kind::Cutoff]), "ms");
    m.set("measure_tick_p50_ms", median(byKind[SliderEvent::Kind::Measure]), "ms");
    m.set("goodput_per_s", ratio(good, r.measuredSec), "1/s");
    m.set("wire_bytes_per_tick",
          ratio(counterDelta(r, "wire_bytes"), counterDelta(r, "completed")), "bytes");
    m.set("peak_rss_mb", peakRssMb(), "MB");

    m.set("tick_p99_ms", percentile(lat, 99.0), "ms");
    m.set("spike.tick_p50_ms", percentile(spike, 50.0), "ms");
    m.set("spike.tick_p99_ms", percentile(spike, 99.0), "ms");
    m.set("deadline_met_frac", ratio(met, n), "frac");
    m.set("degraded_frac", ratio(degraded, n), "frac");
    m.set("fail_frac", ratio(failed, n), "frac");
    m.set("gen.lag_p99_ms", lagP99Ms(r), "ms");
    m.set("gen.poll_ms", r.pollMs, "ms");

    const double submitted = counterDelta(r, "submitted");
    const double completed = counterDelta(r, "completed");
    m.set("serve.queue_wait_p50_ms", percentile(queue, 50.0), "ms");
    m.set("serve.queue_wait_p99_ms", percentile(queue, 99.0), "ms");
    m.set("serve.dispatch_p50_ms", percentile(dispatch, 50.0), "ms");
    m.set("serve.coalesced_frac", ratio(counterDelta(r, "coalesced"), submitted), "frac");
    m.set("serve.rejected_frac", ratio(counterDelta(r, "rejected"), submitted), "frac");
    m.set("serve.approx_frac", ratio(counterDelta(r, "measure_tier_approx"), completed), "frac");
    m.set("serve.stale_frac", ratio(counterDelta(r, "measure_tier_stale"), completed), "frac");
    m.set("spec.hit_frac", ratio(counterDelta(r, "spec_hit"), moving), "frac");
    m.set("spec.wasted_frac",
          ratio(counterDelta(r, "spec_miss") + counterDelta(r, "spec_cancelled"),
                counterDelta(r, "speculated")),
          "frac");
    m.set("spec.cpu_ms_per_tick", ratio(counterDelta(r, "spec_cpu_ms"), completed), "ms");
    m.set("obs.retained_frac", r.retainedFrac, "frac");
}

// ---------------------------------------------------------------------------
// Layer replay (the traced run): the widget's update cycle re-enacted through
// the layers' public functions, with the bench's own spans around each call.

enum Layer : std::size_t { kRin, kMeasure, kLayout, kScene, kEncode, kClient, kNumLayers };
const char* const kLayerNames[kNumLayers] = {"rin",   "measure", "layout",
                                             "scene", "encode",  "client"};

/// What one replayed tick did, per layer.
struct ReplayTick {
    SliderEvent::Kind kind = SliderEvent::Kind::Refresh;
    std::array<double, kNumLayers> ms{};
    count edgesChanged = 0;
    viz::MeasureEngine::ResultInfo measure;
    count layoutIters = 0;
    std::size_t wireBytes = 0;
    bool keyframe = false;
    count patchElements = 0;

    double totalMs() const {
        double s = 0.0;
        for (double v : ms) s += v;
        return s;
    }
};

/// Metric-name key of @p m, in viz::Measure's declaration order.
const char* measureKey(viz::Measure m) {
    static const char* const keys[viz::kNumMeasures] = {
        "degree",    "closeness",   "harmonic_closeness", "betweenness", "pagerank",
        "eigenvector", "katz",      "core_number",        "local_clustering", "plm",
        "leiden",    "map_equation", "plp"};
    return keys[static_cast<std::size_t>(m)];
}

class LayerReplay {
public:
    LayerReplay(const md::Trajectory& traj, const viz::RinWidgetOptions& opts)
        : opts_(opts),
          rin_(traj, opts.criterion, opts.initialCutoff, opts.initialFrame),
          engine_(engineOptions(opts)),
          measure_(opts.initialMeasure.value_or(viz::Measure::Closeness)),
          encoder_(wire::DeltaEncoderOptions{opts.wireKeyframeInterval}) {
        // The widget's first update: cold multilevel layout, first measure,
        // full render.
        const Graph& g = rin_.graph();
        const double t0 = nowUs();
        MultilevelMaxentStress::Parameters params;
        params.sweep.seed = opts_.seed;
        MultilevelMaxentStress layout(g, 3, params);
        layout.setWorkspace(&ws_);
        layout.run();
        coords_ = layout.getCoordinates();
        coldLayoutMs_ = (nowUs() - t0) / 1000.0;
        ReplayTick tick;
        readScores(tick);
        render(tick, true, false, false);
    }

    double coldLayoutMs() const { return coldLayoutMs_; }

    /// Applies one event; when @p log is set, records a "tick" root span and
    /// one child per layer call.
    ReplayTick apply(const SliderEvent& e, std::vector<obs::SpanRecord>* log) {
        ReplayTick tick;
        tick.kind = e.kind;
        log_ = log;
        traceId_ = nextId_++;
        rootId_ = nextId_++;
        const double t0 = nowUs();
        if (e.kind == SliderEvent::Kind::Measure) {
            measure_ = e.measure;
            layer(tick, kMeasure, [&] { readScores(tick); });
            render(tick, true, true, false);
        } else {
            const Graph& g = rin_.graph();
            const std::uint64_t pre = g.version();
            layer(tick, kRin, [&] {
                const auto stats = e.kind == SliderEvent::Kind::Frame ? rin_.setFrame(e.frame)
                                                                     : rin_.setCutoff(e.cutoff);
                tick.edgesChanged = stats.edgesAdded + stats.edgesRemoved;
            });
            layer(tick, kMeasure,
                  [&] { engine_.noteDiff(g, pre, rin_.lastAdded(), rin_.lastRemoved()); });
            layer(tick, kLayout, [&] {
                MaxentStress::Parameters params;
                params.iterations = opts_.layoutIterations;
                params.warmStartIterations = opts_.layoutWarmStartIterations;
                params.seed = opts_.seed;
                MaxentStress layout(g, 3, params);
                layout.setWorkspace(&ws_);
                layout.setInitialCoordinates(coords_);
                layout.run();
                coords_ = layout.getCoordinates();
                tick.layoutIters = layout.iterationsDone();
            });
            layer(tick, kMeasure, [&] { readScores(tick); });
            tracesValid_ = false;
            render(tick, e.kind == SliderEvent::Kind::Frame, false, true);
        }
        if (log_ != nullptr) {
            obs::SpanRecord root;
            root.traceId = traceId_;
            root.spanId = rootId_;
            root.name = std::string("tick.") + std::string(serve::kindName(e.kind));
            root.startUs = t0;
            root.endUs = nowUs();
            log_->push_back(std::move(root));
        }
        return tick;
    }

private:
    static viz::MeasureEngine::Options engineOptions(const viz::RinWidgetOptions& o) {
        viz::MeasureEngine::Options e;
        e.dynamicMeasures = o.dynamicMeasures;
        e.dynStateMaxNodes = o.dynStateMaxNodes;
        e.seed = o.seed;
        return e;
    }

    /// The widget's exact read of the current measure.
    void readScores(ReplayTick& tick) {
        scores_ = engine_.scores(rin_.graph(), measure_, viz::MeasureEngine::Request{},
                                 &tick.measure);
    }

    /// Runs @p fn as one call into layer @p layer, adding its time to the
    /// tick and recording a child span.
    template <typename F>
    void layer(ReplayTick& tick, Layer layer, F&& fn) {
        const double t0 = nowUs();
        fn();
        const double t1 = nowUs();
        tick.ms[layer] += (t1 - t0) / 1000.0;
        if (log_ == nullptr) return;
        obs::SpanRecord span;
        span.traceId = traceId_;
        span.spanId = nextId_++;
        span.parentId = rootId_;
        span.name = kLayerNames[layer];
        span.startUs = t0;
        span.endUs = t1;
        log_->push_back(std::move(span));
    }

    /// Scene build, encode and client patch, as RinWidget::renderAndShip
    /// does them. @p diffed: the edge set moved by DynamicRin's diff.
    void render(ReplayTick& tick, bool fullClientUpdate, bool markersOnly, bool diffed) {
        const Graph& g = rin_.graph();
        const bool binary = opts_.wireFormat == viz::WireFormat::Binary;
        std::vector<double> shown = scores_;
        if (shown.empty()) shown.assign(g.numberOfNodes(), 0.0);
        const bool needEdges = binary ? !diffed && !markersOnly : !tracesValid_;
        const bool fullEdges = binary && needEdges;
        viz::Scene left, right;
        layer(tick, kScene, [&] {
            const auto protein = rin_.protein().alphaCarbons();
            if (viz::isCommunityMeasure(measure_)) {
                std::vector<index> comm(shown.size());
                for (count i = 0; i < shown.size(); ++i) comm[i] = static_cast<index>(shown[i]);
                left = viz::makeCommunityScene(g, protein, comm, "protein layout", needEdges);
                right = viz::makeCommunityScene(g, coords_, comm, "Maxent-Stress layout",
                                                needEdges);
            } else {
                left = viz::makeScene(g, protein, shown, opts_.palette, "protein layout",
                                      needEdges);
                right = viz::makeScene(g, coords_, shown, opts_.palette, "Maxent-Stress layout",
                                       needEdges);
            }
        });
        if (binary) {
            static const EdgeList kNone;
            wire::EdgeDiffHint hint;
            hint.added = diffed ? &rin_.lastAdded() : &kNone;
            hint.removed = diffed ? &rin_.lastRemoved() : &kNone;
            wire::DeltaEncoder::LodProvider lod;
            if (opts_.lodScenes) lod = [this] { return lodMapping(); };
            wire::Bytes frame, refine;
            layer(tick, kEncode, [&] {
                frame = encoder_.encode({&left, &right}, shown, decoder_.ack(),
                                        fullEdges ? nullptr : &hint, lod);
                if (encoder_.hasRefineFrame()) refine = encoder_.takeRefineFrame();
            });
            tick.wireBytes = frame.size() + refine.size();
            tick.keyframe = encoder_.lastStats().keyframe;
            layer(tick, kClient, [&] {
                wire::PatchStats patch;
                client_.processWirePatch(frame, decoder_, &patch);
                tick.patchElements = patch.elementsTouched();
                if (!refine.empty()) {
                    client_.processWirePatch(refine, decoder_, &patch);
                    tick.patchElements += patch.elementsTouched();
                }
            });
        } else {
            std::string json;
            layer(tick, kEncode, [&] {
                if (!tracesValid_) {
                    traces_[0] = viz::Figure::edgeTraceJson(left, 0);
                    traces_[1] = viz::Figure::edgeTraceJson(right, 1);
                    tracesValid_ = true;
                }
                viz::Figure fig;
                fig.addScene(left, traces_[0]);
                fig.addScene(right, traces_[1]);
                json = fig.toJson();
            });
            tick.wireBytes = json.size();
            const count nodes = 2 * g.numberOfNodes();
            const count edges = markersOnly ? 0 : 2 * g.numberOfEdges();
            tick.patchElements = fullClientUpdate ? nodes + edges : edges;
            layer(tick, kClient, [&] {
                viz::ClientCostModel::Parameters params;
                params.fullUpdate = fullClientUpdate;
                viz::ClientCostModel(params).processUpdate(json, nodes, edges);
            });
        }
    }

    const LodMapping* lodMapping() {
        const Graph& g = rin_.graph();
        if (g.numberOfNodes() < opts_.lodMinNodes) return nullptr;
        if (!lodValid_ || lodVersion_ != g.version()) {
            const count divisor = std::max<count>(2, opts_.lodFactor);
            lod_ = buildLodMapping(g, std::max<count>(2, g.numberOfNodes() / divisor));
            lodVersion_ = g.version();
            lodValid_ = true;
        }
        return lod_.coarseNodes > 0 ? &lod_ : nullptr;
    }

    viz::RinWidgetOptions opts_;
    rin::DynamicRin rin_;
    viz::MeasureEngine engine_;
    viz::Measure measure_;
    std::vector<double> scores_;
    MaxentWorkspace ws_;
    std::vector<Point3> coords_;
    double coldLayoutMs_ = 0.0;
    std::array<std::string, 2> traces_;
    bool tracesValid_ = false;
    wire::DeltaEncoder encoder_;
    wire::FrameDecoder decoder_;
    viz::ClientCostModel client_;
    LodMapping lod_;
    std::uint64_t lodVersion_ = 0;
    bool lodValid_ = false;
    std::vector<obs::SpanRecord>* log_ = nullptr;
    std::uint64_t nextId_ = 1, traceId_ = 0, rootId_ = 0;
};

/// The events a traced drag-1000 or fleet-1000 run replays after its normal
/// run: the first kDragReplayTicks events of the drag schedule, or one lap
/// of one fleet session's script. (explore interleaves its replay laps with
/// the normal run's laps instead; see benchMain.)
std::vector<SliderEvent> replayEventsAfterRun(const Workload& w, std::uint64_t seed) {
    std::vector<SliderEvent> events;
    if (w.mode == Mode::Drag) {
        for (const Planned& p : dragPlan(seed, 60.0)) {
            if (!p.checkpoint) events.push_back(p.event);
            if (events.size() == kDragReplayTicks) break;
        }
    } else {
        ExploreScript script;
        for (std::size_t i = 0; i < script.lapSize(); ++i) events.push_back(script.next());
    }
    return events;
}

/// Reports the per-layer metrics of the replayed @p ticks, the cold costs,
/// and the attribution residual against the untraced run @p run.
void reportReplay(const viz::RinWidgetOptions& opts, const md::Trajectory& traj,
                  const LayerReplay& replay, const std::vector<ReplayTick>& ticks,
                  const RunResult& run, Metrics& m) {
    std::vector<double> frameMs, cutoffMs, changed, exactMs, dynMs, warmMs, warmIters, sceneMs,
        jsonMs, binaryMs, bytes, clientMs, patch;
    double hits = 0.0, dynamic = 0.0, keyframes = 0.0;
    for (const ReplayTick& t : ticks) {
        const bool moving = t.kind != SliderEvent::Kind::Measure;
        if (t.kind == SliderEvent::Kind::Frame) frameMs.push_back(t.ms[kRin]);
        if (t.kind == SliderEvent::Kind::Cutoff) cutoffMs.push_back(t.ms[kRin]);
        if (moving) {
            changed.push_back(static_cast<double>(t.edgesChanged));
            warmMs.push_back(t.ms[kLayout]);
            warmIters.push_back(static_cast<double>(t.layoutIters));
        }
        if (t.measure.cacheHit) hits += 1.0;
        if (t.measure.tier == viz::ResolutionTier::Dynamic) {
            dynamic += 1.0;
            dynMs.push_back(t.ms[kMeasure]);
        } else if (t.measure.tier == viz::ResolutionTier::Exact && !t.measure.cacheHit) {
            exactMs.push_back(t.ms[kMeasure]);
        }
        sceneMs.push_back(t.ms[kScene]);
        (opts.wireFormat == viz::WireFormat::Binary ? binaryMs : jsonMs).push_back(t.ms[kEncode]);
        bytes.push_back(static_cast<double>(t.wireBytes));
        if (t.keyframe) keyframes += 1.0;
        clientMs.push_back(t.ms[kClient]);
        patch.push_back(static_cast<double>(t.patchElements));
    }
    const auto n = static_cast<double>(ticks.size());
    m.set("rin.frame_ms_p50", median(frameMs), "ms");
    m.set("rin.cutoff_ms_p50", median(cutoffMs), "ms");
    m.set("rin.edges_changed_p50", median(changed), "count");
    m.set("measure.exact_ms_p50", median(exactMs), "ms");
    m.set("measure.dynamic_ms_p50", median(dynMs), "ms");
    m.set("measure.hit_frac", ratio(hits, n), "frac");
    m.set("measure.dynamic_frac", ratio(dynamic, n), "frac");
    m.set("layout.warm_ms_p50", median(warmMs), "ms");
    m.set("layout.warm_iters_p50", median(warmIters), "count");
    m.set("layout.cold_ms", replay.coldLayoutMs(), "ms");
    m.set("scene.build_ms_p50", median(sceneMs), "ms");
    m.set("encode.json_ms_p50", median(jsonMs), "ms");
    m.set("encode.binary_ms_p50", median(binaryMs), "ms");
    m.set("wire.bytes_p50", median(bytes), "bytes");
    m.set("wire.keyframe_frac", ratio(keyframes, n), "frac");
    m.set("client.ms_p50", median(clientMs), "ms");
    m.set("client.patch_elements_p50", median(patch), "count");

    // Cold cost of each measure on the initial graph: a fresh engine per
    // measure, as the widget's first read of that measure pays it.
    const Graph g = rin::RinBuilder(opts.criterion)
                        .build(traj.proteinAtFrame(opts.initialFrame), opts.initialCutoff);
    for (viz::Measure measure : viz::allMeasures()) {
        viz::MeasureEngine engine;
        const double t0 = nowUs();
        engine.scores(g, measure, viz::MeasureEngine::Request{});
        m.set(std::string("measure.cold_ms.") + measureKey(measure), (nowUs() - t0) / 1000.0,
              "ms");
    }

    // Attribution: the replayed layer means, weighted by the untraced run's
    // event mix, against the untraced run's mean tick.
    std::map<SliderEvent::Kind, std::pair<double, double>> replayByKind; // sum, count
    for (const ReplayTick& t : ticks) {
        replayByKind[t.kind].first += t.totalMs();
        replayByKind[t.kind].second += 1.0;
    }
    double runSum = 0.0, layerSum = 0.0;
    for (const Tick& t : run.ticks) {
        if (!t.outcome.accepted()) continue;
        const auto it = replayByKind.find(t.kind);
        if (it == replayByKind.end()) continue;
        runSum += t.latencyMs();
        layerSum += it->second.first / it->second.second;
    }
    m.set("attrib.residual_frac", runSum == 0.0 ? 0.0 : 1.0 - layerSum / runSum, "frac");
}

// ---------------------------------------------------------------------------
// Thread-scaling sweep.

template <typename F>
double medianMs(int reps, F&& fn) {
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) {
        const double t0 = nowUs();
        fn();
        v.push_back((nowUs() - t0) / 1000.0);
    }
    return median(v);
}

void scalingSweep(std::uint64_t seed, Metrics& m) {
    const int defaultThreads = omp_get_max_threads();
    const md::Trajectory traj4000 = makeTrajectory(4000, seed);
    const md::Protein protein = traj4000.proteinAtFrame(0);
    const rin::RinBuilder builder;
    const Graph rin4000 = builder.build(protein, 4.5);
    const CsrView view = CsrView::fromGraph(rin4000);
    const Graph rgg = generators::randomGeometric3D(kRggNodes, kRggRadius, seed);

    for (int t : kThreadSweep) {
        omp_set_num_threads(t);
        const std::string suffix = ".t" + std::to_string(t) + "_ms";
        m.set("scale.contacts" + suffix, medianMs(5, [&] { builder.build(protein, 4.5); }), "ms");
        m.set("scale.closeness" + suffix, medianMs(3, [&] {
                  viz::computeMeasure(rin4000, view, viz::Measure::Closeness);
              }),
              "ms");
        m.set("scale.betweenness" + suffix, medianMs(3, [&] {
                  viz::computeMeasure(rin4000, view, viz::Measure::Betweenness);
              }),
              "ms");
        m.set("scale.plm" + suffix, medianMs(3, [&] { Plm(rgg).run(); }), "ms");
        std::vector<Point3> cold;
        m.set("scale.layout_cold" + suffix, medianMs(1, [&] {
                  MultilevelMaxentStress layout(rgg, 3);
                  layout.run();
                  cold = layout.getCoordinates();
              }),
              "ms");
        m.set("scale.layout_warm" + suffix, medianMs(1, [&] {
                  MaxentStress::Parameters params;
                  params.iterations = viz::RinWidgetOptions{}.layoutIterations;
                  params.warmStartIterations = viz::RinWidgetOptions{}.layoutWarmStartIterations;
                  MaxentStress layout(rgg, 3, params);
                  layout.setInitialCoordinates(cold);
                  layout.run();
              }),
              "ms");
    }
    omp_set_num_threads(defaultThreads);

    const md::Trajectory traj1000 = makeTrajectory(1000, seed);
    for (int w : kThreadSweep)
        m.set("scale.serve.w" + std::to_string(w) + "_per_s",
              saturationPerSec(traj1000, static_cast<count>(w), seed), "1/s");
}

// ---------------------------------------------------------------------------

int usage() {
    std::fprintf(stderr,
                 "usage: bench_cycle --workload <name> --seed <n> --seconds <s> [--trace <path>]\n"
                 "       bench_cycle --self-test\n"
                 "workloads:");
    for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

int benchMain(int argc, char** argv) {
    std::string workloadName, tracePath;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--self-test") return selfTest();
        if (arg == "--workload" && hasValue) {
            workloadName = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && hasValue) {
            seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && hasValue) {
            tracePath = argv[++i];
        } else {
            return usage();
        }
    }
    const auto it = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                                 [&](const Workload& w) { return workloadName == w.name; });
    if (it == kWorkloads.end() || !(seconds > 0.0)) return usage();
    const Workload& w = *it;

    Metrics m;
    const double g0 = nowUs();
    const md::Trajectory traj = makeTrajectory(w.residues, seed);
    m.set("gen_s", (nowUs() - g0) / 1e6, "s");

    // A traced run gives half its time to the normal run, which feeds the
    // serve-layer metrics and the attribution, and the rest to the layer
    // replay and the scaling sweep. explore interleaves one replay lap after
    // each of at least two service laps, so that both see the same machine
    // (its speed drifts over tens of seconds); drag and fleet replay after.
    const bool tracing = !tracePath.empty();
    const viz::RinWidgetOptions opts = widgetOptions(w);
    const double runSeconds = tracing ? seconds / 2.0 : seconds;
    // The replay is built lazily, in a warm process: a process's first
    // multi-threaded OpenMP work costs about a second here, which would
    // otherwise land in layout.cold_ms.
    std::optional<LayerReplay> replay;
    std::vector<ReplayTick> replayed;
    std::vector<obs::SpanRecord> spans;
    const double refBefore = machineRefMs();
    RunResult run;
    switch (w.mode) {
    case Mode::Explore: {
        ExploreScript replayScript;
        std::function<void()> afterLap;
        if (tracing) {
            afterLap = [&] {
                if (!replay) {
                    replay.emplace(traj, opts);
                    for (const auto& e : exploreWarmup()) replay->apply(e, nullptr);
                }
                for (std::size_t i = 0; i < replayScript.lapSize(); ++i)
                    replayed.push_back(replay->apply(replayScript.next(), &spans));
            };
        }
        run = runExplore(w, traj, runSeconds, afterLap, tracing ? 2 : 1);
        break;
    }
    case Mode::Drag: run = runDrag(w, traj, seed, runSeconds); break;
    case Mode::Fleet: run = runFleet(w, traj, seed, runSeconds); break;
    }
    m.set("gen.ref_ms", (refBefore + machineRefMs()) / 2.0, "ms");
    reportRun(w, run, m);
    if (tracing) {
        if (!replay) {
            replay.emplace(traj, opts);
            for (const auto& e : replayEventsAfterRun(w, seed))
                replayed.push_back(replay->apply(e, &spans));
        }
        reportReplay(opts, traj, *replay, replayed, run, m);
        scalingSweep(seed, m);
        if (!obs::writeChromeTrace(tracePath, spans)) run.failures.push_back("trace not written");
    }

    count failed = 0;
    for (const Tick& t : run.ticks)
        if (!t.outcome.accepted()) ++failed;
    const bool valid = lagP99Ms(run) <= kMaxLagP99Ms;
    for (const auto& f : run.failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());

    JsonWriter info;
    info.beginObject();
    info.kv("workload", w.name);
    info.kv("seed", static_cast<unsigned long long>(seed));
    info.kv("seconds", seconds);
    info.kv("nproc", std::thread::hardware_concurrency());
    info.kv("omp_max_threads", omp_get_max_threads());
    info.kv("workers", static_cast<unsigned long long>(run.workers));
    info.kv("poll_us", kPollUs);
    info.kv("generator_realtime", run.realtime);
    info.kv("ticks", run.ticks.size());
    info.endObject();
    std::printf("# info %s\n", info.str().c_str());

    JsonWriter out;
    out.beginObject();
    out.kv("correct", run.failures.empty());
    out.kv("attempted", run.ticks.size());
    out.kv("failed", static_cast<unsigned long long>(failed));
    out.kv("valid", valid);
    out.key("metrics");
    m.write(out);
    out.endObject();
    std::printf("%s\n", out.str().c_str());
    return run.failures.empty() ? 0 : 1;
}

} // namespace
} // namespace rinkit::cycle

int main(int argc, char** argv) { return rinkit::cycle::benchMain(argc, argv); }
