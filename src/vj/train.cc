#include "vj/train.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace incam {

namespace {

/** Feature values for a set of samples: values[f][s]. */
struct FeatureMatrix
{
    std::vector<std::vector<float>> values;
    std::vector<std::vector<int32_t>> order; ///< per-feature sort by value

    void
    compute(const std::vector<HaarFeature> &features,
            const std::vector<ImageU8> &samples, int base)
    {
        values.assign(features.size(), {});
        const size_t n = samples.size();
        std::vector<IntegralImage> iis;
        std::vector<double> inv_norms;
        iis.reserve(n);
        inv_norms.reserve(n);
        for (const auto &img : samples) {
            iis.emplace_back(img);
            inv_norms.push_back(windowInvNorm(iis.back(), 0, 0, base));
        }
        for (size_t f = 0; f < features.size(); ++f) {
            const ScaledFeature scaled(features[f], 1.0);
            values[f].resize(n);
            for (size_t s = 0; s < n; ++s) {
                values[f][s] = static_cast<float>(
                    scaled.evaluate(iis[s], 0, 0, inv_norms[s]));
            }
        }
        order.assign(features.size(), {});
        for (size_t f = 0; f < features.size(); ++f) {
            order[f].resize(n);
            std::iota(order[f].begin(), order[f].end(), 0);
            std::sort(order[f].begin(), order[f].end(),
                      [&](int32_t a, int32_t b) {
                          return values[f][a] < values[f][b];
                      });
        }
    }
};

/** Best stump for one feature under the current weights. */
struct StumpFit
{
    double error = 1.0;
    double threshold = 0.0;
    int8_t polarity = 1;
};

StumpFit
fitStump(const std::vector<float> &vals, const std::vector<int32_t> &order,
         const std::vector<double> &weights, const std::vector<int8_t> &label,
         double total_pos, double total_neg)
{
    // Scan thresholds between consecutive sorted values. "polarity +1"
    // means predicting face when value < threshold.
    StumpFit best;
    double seen_pos = 0.0;
    double seen_neg = 0.0;
    for (size_t i = 0; i < order.size(); ++i) {
        const int32_t s = order[i];
        if (label[s]) {
            seen_pos += weights[s];
        } else {
            seen_neg += weights[s];
        }
        // Threshold after sample i: everything up to i is "below".
        if (i + 1 < order.size() &&
            vals[order[i + 1]] == vals[s]) {
            continue; // can't split equal values
        }
        const double thr =
            i + 1 < order.size()
                ? 0.5 * (static_cast<double>(vals[s]) + vals[order[i + 1]])
                : static_cast<double>(vals[s]) + 1e-6;
        // polarity +1: below -> face. error = missed pos above + neg below
        const double err_pos_below = (total_pos - seen_pos) + seen_neg;
        // polarity -1: below -> non-face. error = pos below + neg above
        const double err_neg_below = seen_pos + (total_neg - seen_neg);
        if (err_pos_below < best.error) {
            best = {err_pos_below, thr, +1};
        }
        if (err_neg_below < best.error) {
            best = {err_neg_below, thr, -1};
        }
    }
    return best;
}

/** Weighted-vote score of a window's stage response on cached values. */
double
stageScore(const CascadeStage &stage,
           const std::vector<std::vector<float>> &values, size_t sample)
{
    double score = 0.0;
    for (const auto &stump : stage.stumps) {
        const float v = values[stump.feature][sample];
        const bool fire = stump.polarity > 0 ? v < stump.threshold
                                             : v >= stump.threshold;
        if (fire) {
            score += stump.alpha;
        }
    }
    return score;
}

} // namespace

CascadeTrainer::CascadeTrainer(CascadeTrainConfig cfg) : conf(cfg)
{
    incam_assert(conf.stage_tpr > 0.5 && conf.stage_tpr <= 1.0,
                 "per-stage TPR target out of range");
    incam_assert(conf.stage_fpr > 0.0 && conf.stage_fpr < 1.0,
                 "per-stage FPR target out of range");
}

Cascade
CascadeTrainer::train(const std::vector<ImageU8> &positives,
                      const NegativeSource &negatives,
                      CascadeTrainReport *report)
{
    incam_assert(positives.size() >= 10, "need >= 10 positive samples");
    for (const auto &p : positives) {
        incam_assert(p.width() == conf.base_size &&
                         p.height() == conf.base_size,
                     "positive sample size mismatch");
    }

    Rng rng(conf.seed);

    // Feature pool: deterministic enumeration, optionally subsampled.
    std::vector<HaarFeature> pool = enumerateFeatures(
        conf.base_size, conf.position_stride, conf.size_stride);
    if (static_cast<int>(pool.size()) > conf.max_features) {
        // Fisher-Yates prefix shuffle, then truncate.
        for (int i = 0; i < conf.max_features; ++i) {
            const size_t j =
                i + rng.below(pool.size() - static_cast<size_t>(i));
            std::swap(pool[i], pool[j]);
        }
        pool.resize(conf.max_features);
    }

    std::vector<CascadeStage> stages;

    // Current negative working set, re-mined each stage.
    std::vector<ImageU8> negs;
    auto mineNegatives = [&](int wanted) {
        // Keep only windows the cascade-so-far still accepts; it is
        // built (and scaled) once per stage, not once per draw.
        const Cascade current(conf.base_size, pool, stages);
        int attempts = 0;
        while (static_cast<int>(negs.size()) < wanted &&
               attempts < conf.mining_attempts) {
            ++attempts;
            ImageU8 cand = negatives(rng);
            incam_assert(cand.width() == conf.base_size &&
                             cand.height() == conf.base_size,
                         "negative sample size mismatch");
            if (stages.empty() || current.classifyCrop(cand)) {
                negs.push_back(std::move(cand));
            }
        }
        return static_cast<int>(negs.size()) >= wanted / 2;
    };

    double cumulative_fpr = 1.0;
    bool exhausted = false;

    for (int stage_idx = 0; stage_idx < conf.max_stages; ++stage_idx) {
        negs.clear();
        if (!mineNegatives(conf.negatives_per_stage)) {
            exhausted = true; // cascade already rejects ~everything
            break;
        }

        // Assemble the stage training set: positives then negatives.
        std::vector<ImageU8> samples;
        samples.reserve(positives.size() + negs.size());
        samples.insert(samples.end(), positives.begin(), positives.end());
        samples.insert(samples.end(), negs.begin(), negs.end());
        const size_t n_pos = positives.size();
        const size_t n = samples.size();

        FeatureMatrix fm;
        fm.compute(pool, samples, conf.base_size);

        std::vector<int8_t> label(n, 0);
        std::fill(label.begin(), label.begin() + n_pos, int8_t{1});
        std::vector<double> weights(n);
        std::fill(weights.begin(), weights.begin() + n_pos,
                  0.5 / static_cast<double>(n_pos));
        std::fill(weights.begin() + n_pos, weights.end(),
                  0.5 / static_cast<double>(n - n_pos));

        CascadeStage stage;
        double stage_fpr = 1.0;
        while (static_cast<int>(stage.stumps.size()) <
                   conf.max_stumps_per_stage &&
               stage_fpr > conf.stage_fpr) {
            // Normalize weights.
            const double wsum =
                std::accumulate(weights.begin(), weights.end(), 0.0);
            for (auto &w : weights) {
                w /= wsum;
            }
            double total_pos = 0.0, total_neg = 0.0;
            for (size_t s = 0; s < n; ++s) {
                (label[s] ? total_pos : total_neg) += weights[s];
            }

            // Pick the feature whose best stump has minimal error.
            StumpFit best;
            int best_feature = -1;
            for (size_t f = 0; f < pool.size(); ++f) {
                const StumpFit fit = fitStump(fm.values[f], fm.order[f],
                                              weights, label, total_pos,
                                              total_neg);
                if (fit.error < best.error) {
                    best = fit;
                    best_feature = static_cast<int>(f);
                }
            }
            incam_assert(best_feature >= 0, "no usable stump found");

            const double err =
                std::clamp(best.error, 1e-10, 1.0 - 1e-10);
            if (err >= 0.5) {
                break; // no better than chance: stop growing the stage
            }
            const double beta = err / (1.0 - err);
            Stump stump;
            stump.feature = best_feature;
            stump.threshold = best.threshold;
            stump.polarity = best.polarity;
            stump.alpha = std::log(1.0 / beta);
            stage.stumps.push_back(stump);

            // Reweight: correctly classified samples shrink.
            for (size_t s = 0; s < n; ++s) {
                const float v = fm.values[best_feature][s];
                const bool fire = best.polarity > 0 ? v < best.threshold
                                                    : v >= best.threshold;
                const bool correct = fire == (label[s] != 0);
                if (correct) {
                    weights[s] *= beta;
                }
            }

            // Set the stage threshold for the TPR target: sort positive
            // scores and take the (1 - tpr) quantile.
            std::vector<double> pos_scores(n_pos);
            for (size_t s = 0; s < n_pos; ++s) {
                pos_scores[s] = stageScore(stage, fm.values, s);
            }
            std::sort(pos_scores.begin(), pos_scores.end());
            const size_t drop = static_cast<size_t>(
                (1.0 - conf.stage_tpr) * static_cast<double>(n_pos));
            stage.threshold =
                pos_scores[std::min(drop, n_pos - 1)] - 1e-9;

            // Measure FPR on the stage's negatives.
            size_t fp = 0;
            for (size_t s = n_pos; s < n; ++s) {
                if (stageScore(stage, fm.values, s) >= stage.threshold) {
                    ++fp;
                }
            }
            stage_fpr = static_cast<double>(fp) /
                        static_cast<double>(n - n_pos);
        }

        incam_assert(!stage.stumps.empty(), "empty stage trained");
        stages.push_back(std::move(stage));
        cumulative_fpr *= std::max(stage_fpr, 1e-6);
    }

    incam_assert(!stages.empty(),
                 "training produced no stages — negative source failed "
                 "to supply data");
    Cascade result(conf.base_size, std::move(pool), std::move(stages));

    if (report) {
        report->stages = result.stageCount();
        report->total_stumps = result.stumpCount();
        report->final_fpr = cumulative_fpr;
        report->mining_exhausted = exhausted;
        size_t tp = 0;
        for (const auto &p : positives) {
            if (result.classifyCrop(p)) {
                ++tp;
            }
        }
        report->final_tpr =
            static_cast<double>(tp) / static_cast<double>(positives.size());
    }
    return result;
}

} // namespace incam
