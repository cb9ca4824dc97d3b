#include "src/dyn/dyn_closeness.hpp"

#include <omp.h>

#include "src/components/csr_bfs.hpp"

namespace rinkit::dyn {

void DynCloseness::init(const CsrView& v) {
    n_ = v.numberOfNodes();
    version_ = v.version();
    lvl_.assign(n_ * n_, kUnreachedLevel);
    sumDist_.assign(n_, 0.0);
    sumInv_.assign(n_, 0.0);
    reached_.assign(n_, 0);
    primed_ = true;
    if (n_ == 0) return;

#pragma omp parallel
    {
        CsrBfs bfs(v);
#pragma omp for schedule(dynamic, 16)
        for (long long si = 0; si < static_cast<long long>(n_); ++si) {
            const node s = static_cast<node>(si);
            bfs.run(s);
            std::uint16_t* row = lvl_.data() + static_cast<size_t>(si) * n_;
            double sd = 0.0, si2 = 0.0;
            count r = 0;
            for (node u = 0; u < n_; ++u) {
                const std::uint32_t d = bfs.levelOf(u);
                if (d == CsrBfs::unreachedLevel) continue;
                row[u] = static_cast<std::uint16_t>(d);
                if (u != s) {
                    sd += static_cast<double>(d);
                    si2 += 1.0 / static_cast<double>(d);
                    ++r;
                }
            }
            sumDist_[s] = sd;
            sumInv_[s] = si2;
            reached_[s] = r;
        }
    }
}

void DynCloseness::update(const CsrView& v, const EdgeBatch& batch) {
    version_ = v.version();
    if (n_ == 0 || batch.size() == 0) return;

#pragma omp parallel
    {
        LevelRepairer repairer;
        std::vector<LevelChange> changes;
#pragma omp for schedule(dynamic, 8)
        for (long long si = 0; si < static_cast<long long>(n_); ++si) {
            const node s = static_cast<node>(si);
            std::uint16_t* row = lvl_.data() + static_cast<size_t>(si) * n_;
            changes.clear();
            repairer.repair(v, s, row, batch, changes);
            double sd = sumDist_[s], sInv = sumInv_[s];
            count r = reached_[s];
            for (const LevelChange& c : changes) {
                if (c.oldLevel != kUnreachedLevel) {
                    sd -= static_cast<double>(c.oldLevel);
                    sInv -= 1.0 / static_cast<double>(c.oldLevel);
                    --r;
                }
                if (c.newLevel != kUnreachedLevel) {
                    sd += static_cast<double>(c.newLevel);
                    sInv += 1.0 / static_cast<double>(c.newLevel);
                    ++r;
                }
            }
            sumDist_[s] = sd;
            sumInv_[s] = sInv;
            reached_[s] = r;
        }
    }
}

std::vector<double> DynCloseness::scores(bool harmonic, bool normalized) const {
    // Mirror ClosenessCentrality::runImpl exactly so the dynamic tier is
    // indistinguishable from the kernel (Standard: bit-equal).
    std::vector<double> out(n_, 0.0);
    for (node u = 0; u < n_; ++u) {
        if (harmonic) {
            const double sum = sumInv_[u];
            out[u] = normalized && n_ > 1 ? sum / static_cast<double>(n_ - 1) : sum;
        } else {
            const double sum = sumDist_[u];
            const count reached = reached_[u] + 1;
            if (reached <= 1 || sum == 0.0) {
                out[u] = 0.0;
            } else {
                const double r = static_cast<double>(reached);
                double c = (r - 1.0) / sum;
                if (normalized && n_ > 1) c *= (r - 1.0) / static_cast<double>(n_ - 1);
                out[u] = c;
            }
        }
    }
    return out;
}

void DynCloseness::reset() {
    primed_ = false;
    lvl_.clear();
    lvl_.shrink_to_fit();
    sumDist_.clear();
    sumInv_.clear();
    reached_.clear();
    n_ = 0;
    version_ = 0;
}

} // namespace rinkit::dyn
