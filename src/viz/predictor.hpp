#pragma once

#include <cmath>
#include <cstdint>

#include "src/support/types.hpp"

namespace rinkit::viz {

/// What the predictor believes the next slider event will be.
struct Prediction {
    enum class Kind { None, Frame, Cutoff };
    Kind kind = Kind::None;
    index frame = 0;
    double cutoff = 0.0;

    bool valid() const { return kind != Kind::None; }
};

/// Last-direction monotone model over the widget's two graph-moving
/// sliders (trajectory frame, distance cutoff) — the prediction source of
/// the speculative precompute path.
///
/// A user dragging a slider produces a direction-persistent walk: tick
/// after tick in the same direction with a near-constant step, with the
/// occasional reversal. The model exploits exactly that and nothing more:
/// after two observations of the same control it predicts one more step of
/// the last-seen delta on the last-moved slider. A reversal or a control
/// switch mispredicts once and the model re-aims on the next observation —
/// no history beyond (last value, last delta) per control is kept, so the
/// predictor is O(1) in both state and update time.
///
/// Predictions at the range boundary (frame past the trajectory end,
/// cutoff outside [minCutoff, maxCutoff]) come back as Kind::None rather
/// than clamped: a clamped prediction would equal the current position,
/// and speculating the state we are already in is pure waste.
class Predictor {
public:
    struct Options {
        /// Exclusive upper bound for frame predictions (trajectory frame
        /// count). 0 disables the bound check.
        count frameCount = 0;
        double minCutoff = 0.5;
        double maxCutoff = 20.0;
    };

    Predictor() = default;
    explicit Predictor(const Options& options) : options_(options) {}

    void observeFrame(index frame) {
        const auto f = static_cast<std::int64_t>(frame);
        if (hasFrame_ && f != lastFrame_) {
            frameStep_ = f - lastFrame_;
            hasFrameStep_ = true;
            lastMoved_ = Prediction::Kind::Frame;
        }
        lastFrame_ = f;
        hasFrame_ = true;
    }

    void observeCutoff(double cutoff) {
        if (hasCutoff_ && std::abs(cutoff - lastCutoff_) > kEps) {
            cutoffStep_ = cutoff - lastCutoff_;
            hasCutoffStep_ = true;
            lastMoved_ = Prediction::Kind::Cutoff;
        }
        lastCutoff_ = cutoff;
        hasCutoff_ = true;
    }

    /// Refresh (the recompute button): the session's interaction pattern is
    /// interrupted, so stop predicting until a slider moves again.
    void reset() { *this = Predictor(options_); }

    Prediction predict() const {
        Prediction p;
        if (lastMoved_ == Prediction::Kind::Frame && hasFrameStep_) {
            const std::int64_t target = lastFrame_ + frameStep_;
            if (target < 0) return p;
            if (options_.frameCount > 0 &&
                target >= static_cast<std::int64_t>(options_.frameCount))
                return p;
            p.kind = Prediction::Kind::Frame;
            p.frame = static_cast<index>(target);
        } else if (lastMoved_ == Prediction::Kind::Cutoff && hasCutoffStep_) {
            const double target = lastCutoff_ + cutoffStep_;
            if (target < options_.minCutoff || target > options_.maxCutoff) return p;
            p.kind = Prediction::Kind::Cutoff;
            p.cutoff = target;
        }
        return p;
    }

    const Options& options() const { return options_; }

private:
    static constexpr double kEps = 1e-12;

    Options options_{};
    std::int64_t lastFrame_ = 0;
    std::int64_t frameStep_ = 0;
    double lastCutoff_ = 0.0;
    double cutoffStep_ = 0.0;
    bool hasFrame_ = false, hasFrameStep_ = false;
    bool hasCutoff_ = false, hasCutoffStep_ = false;
    Prediction::Kind lastMoved_ = Prediction::Kind::None;
};

} // namespace rinkit::viz
