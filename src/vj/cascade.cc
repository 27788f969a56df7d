#include "vj/cascade.hh"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace incam {

namespace {

/** Narrow a parsed field to int8_t; fatal when it is out of range. */
int8_t
narrowInt8(int v)
{
    if (v < std::numeric_limits<int8_t>::min() ||
        v > std::numeric_limits<int8_t>::max()) {
        incam_fatal("cascade field ", v, " out of int8 range");
    }
    return static_cast<int8_t>(v);
}

} // namespace

Cascade::Cascade(int base_size, std::vector<HaarFeature> features,
                 std::vector<CascadeStage> stages)
    : base(base_size), feature_list(std::move(features)),
      stage_list(std::move(stages))
{
    incam_assert(base >= 8, "base window too small");
    for (size_t i = 0; i < feature_list.size(); ++i) {
        const HaarFeature &f = feature_list[i];
        incam_assert(f.n_rects >= 1 && f.n_rects <= 3, "feature ", i,
                     " has ", static_cast<int>(f.n_rects), " rectangles");
        for (int r = 0; r < f.n_rects; ++r) {
            const WeightedRect &rect = f.rects[r];
            incam_assert(rect.w >= 1 && rect.h >= 1 && rect.x >= 0 &&
                             rect.y >= 0 && rect.x + rect.w <= base &&
                             rect.y + rect.h <= base,
                         "feature ", i, " rectangle (",
                         static_cast<int>(rect.x), ",",
                         static_cast<int>(rect.y), ",",
                         static_cast<int>(rect.w), ",",
                         static_cast<int>(rect.h), ") outside the ", base,
                         "-pixel base window");
        }
    }
    for (const auto &stage : stage_list) {
        incam_assert(!stage.stumps.empty(), "a stage needs >= 1 stump");
        for (const auto &stump : stage.stumps) {
            incam_assert(stump.feature >= 0 &&
                             stump.feature <
                                 static_cast<int>(feature_list.size()),
                         "stump references feature ", stump.feature,
                         " outside the table");
        }
    }
    unit_scale = ScaledCascade(*this, 1.0);
}

size_t
Cascade::stumpCount() const
{
    size_t n = 0;
    for (const auto &stage : stage_list) {
        n += stage.stumps.size();
    }
    return n;
}

ScaledCascade::ScaledCascade(const Cascade &cascade, double scale)
    : window_size(static_cast<int>(std::lround(cascade.baseSize() * scale)))
{
    stage_list.reserve(cascade.stages().size());
    for (const auto &stage : cascade.stages()) {
        Stage &out = stage_list.emplace_back();
        out.threshold = stage.threshold;
        out.stumps.reserve(stage.stumps.size());
        for (const auto &stump : stage.stumps) {
            out.stumps.push_back(
                {stump,
                 ScaledFeature(cascade.features()[stump.feature], scale)});
        }
    }
}

bool
ScaledCascade::classify(const IntegralImage &ii, int wx, int wy,
                        CascadeStats *stats) const
{
    incam_assert(!stage_list.empty(), "classify on an untrained cascade");
    if (stats) {
        ++stats->windows;
    }
    const double inv_norm = windowInvNorm(ii, wx, wy, window_size);

    for (const auto &stage : stage_list) {
        if (stats) {
            ++stats->stages_entered;
            stats->features_evaluated += stage.stumps.size();
        }
        double votes = 0.0;
        for (const auto &[stump, feature] : stage.stumps) {
            const double v = feature.evaluate(ii, wx, wy, inv_norm);
            const bool fire = stump.polarity > 0 ? v < stump.threshold
                                                 : v >= stump.threshold;
            if (fire) {
                votes += stump.alpha;
            }
        }
        if (votes < stage.threshold) {
            return false;
        }
    }
    if (stats) {
        ++stats->windows_accepted;
    }
    return true;
}

bool
Cascade::classifyCrop(const ImageU8 &crop, CascadeStats *stats) const
{
    incam_assert(crop.width() == base && crop.height() == base,
                 "crop must match the base window (", base, "), got ",
                 crop.width(), "x", crop.height());
    const IntegralImage ii(crop);
    return unit_scale.classify(ii, 0, 0, stats);
}

std::string
Cascade::serialize() const
{
    std::ostringstream os;
    os << "cascade v1 " << base << " " << feature_list.size() << " "
       << stage_list.size() << "\n";
    for (const auto &f : feature_list) {
        os << static_cast<int>(f.kind) << " " << static_cast<int>(f.n_rects);
        for (int r = 0; r < f.n_rects; ++r) {
            os << " " << static_cast<int>(f.rects[r].x) << " "
               << static_cast<int>(f.rects[r].y) << " "
               << static_cast<int>(f.rects[r].w) << " "
               << static_cast<int>(f.rects[r].h) << " "
               << static_cast<int>(f.rects[r].weight);
        }
        os << "\n";
    }
    for (const auto &stage : stage_list) {
        os << stage.stumps.size() << " " << stage.threshold;
        for (const auto &s : stage.stumps) {
            os << " " << s.feature << " " << s.threshold << " "
               << static_cast<int>(s.polarity) << " " << s.alpha;
        }
        os << "\n";
    }
    return os.str();
}

Cascade
Cascade::deserialize(const std::string &text)
{
    std::istringstream is(text);
    std::string magic, version;
    int base = 0;
    size_t n_features = 0, n_stages = 0;
    is >> magic >> version >> base >> n_features >> n_stages;
    if (!is || magic != "cascade" || version != "v1") {
        incam_fatal("bad cascade header");
    }
    std::vector<HaarFeature> features(n_features);
    for (auto &f : features) {
        int kind = 0, n_rects = 0;
        is >> kind >> n_rects;
        if (!is || kind < 0 ||
            kind > static_cast<int>(HaarFeature::Kind::Center4) ||
            n_rects < 1 || n_rects > 3) {
            incam_fatal("bad cascade feature record");
        }
        f.kind = static_cast<HaarFeature::Kind>(kind);
        f.n_rects = static_cast<uint8_t>(n_rects);
        for (int r = 0; r < n_rects; ++r) {
            int x = 0, y = 0, w = 0, h = 0, weight = 0;
            is >> x >> y >> w >> h >> weight;
            f.rects[r] = {narrowInt8(x), narrowInt8(y),
                          narrowInt8(w), narrowInt8(h),
                          narrowInt8(weight)};
        }
    }
    std::vector<CascadeStage> stages(n_stages);
    for (auto &stage : stages) {
        size_t n_stumps = 0;
        is >> n_stumps >> stage.threshold;
        if (!is || n_stumps == 0) {
            incam_fatal("bad cascade stage record");
        }
        stage.stumps.resize(n_stumps);
        for (auto &s : stage.stumps) {
            int polarity = 0;
            is >> s.feature >> s.threshold >> polarity >> s.alpha;
            s.polarity = narrowInt8(polarity);
        }
    }
    if (!is) {
        incam_fatal("truncated cascade data");
    }
    return Cascade(base, std::move(features), std::move(stages));
}

} // namespace incam
