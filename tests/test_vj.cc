/**
 * @file
 * Tests for the Viola-Jones stack: Haar features, cascade training,
 * the multi-scale detector, scoring and the accelerator cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

#include "common/rng.hh"
#include "image/ops.hh"
#include "vj/accel.hh"
#include "vj/detector.hh"
#include "vj/score.hh"
#include "vj/train.hh"
#include "workload/facegen.hh"
#include "workload/video.hh"

namespace incam {
namespace {

// --- Haar features ------------------------------------------------------

TEST(Haar, EdgeFeatureSeesContrast)
{
    // Left half dark, right half bright: an Edge2H feature spanning the
    // split fires strongly.
    ImageU8 img(20, 20, 1);
    for (int y = 0; y < 20; ++y) {
        for (int x = 0; x < 20; ++x) {
            img.at(x, y) = x < 10 ? 10 : 240;
        }
    }
    const IntegralImage ii(img);
    HaarFeature f;
    f.kind = HaarFeature::Kind::Edge2H;
    f.n_rects = 2;
    f.rects[0] = {0, 0, 10, 20, 1};  // dark side positive
    f.rects[1] = {10, 0, 10, 20, -1};
    const double inv_norm = windowInvNorm(ii, 0, 0, 20);
    const double v = f.evaluate(ii, 0, 0, 1.0, inv_norm);
    EXPECT_LT(v, -0.5); // dark-minus-bright is strongly negative

    // A flat image yields exactly zero (inv_norm = 0 guard).
    ImageU8 flat(20, 20, 1, 99);
    const IntegralImage ii_flat(flat);
    EXPECT_EQ(windowInvNorm(ii_flat, 0, 0, 20), 0.0);
}

TEST(Haar, ScalingKeepsValuesComparable)
{
    // The same pattern at 2x scale must give a similar normalized value.
    auto make = [](int size) {
        ImageU8 img(size, size, 1);
        for (int y = 0; y < size; ++y) {
            for (int x = 0; x < size; ++x) {
                img.at(x, y) = y < size / 2 ? 30 : 220;
            }
        }
        return img;
    };
    HaarFeature f;
    f.kind = HaarFeature::Kind::Edge2V;
    f.n_rects = 2;
    f.rects[0] = {0, 0, 20, 10, 1};
    f.rects[1] = {0, 10, 20, 10, -1};

    const ImageU8 small = make(20);
    const ImageU8 big = make(40);
    const IntegralImage ii_s(small), ii_b(big);
    const double v_s =
        f.evaluate(ii_s, 0, 0, 1.0, windowInvNorm(ii_s, 0, 0, 20));
    const double v_b =
        f.evaluate(ii_b, 0, 0, 2.0, windowInvNorm(ii_b, 0, 0, 40));
    EXPECT_NEAR(v_s, v_b, std::fabs(v_s) * 0.15);
}

TEST(Haar, EnumerationDeterministicAndStrideThins)
{
    const auto dense = enumerateFeatures(20, 2, 2);
    const auto sparse = enumerateFeatures(20, 4, 4);
    EXPECT_GT(dense.size(), sparse.size());
    const auto again = enumerateFeatures(20, 2, 2);
    EXPECT_EQ(dense.size(), again.size());
    for (const auto &f : sparse) {
        for (int r = 0; r < f.n_rects; ++r) {
            EXPECT_GE(f.rects[r].x, 0);
            EXPECT_LE(f.rects[r].x + f.rects[r].w, 20);
            EXPECT_LE(f.rects[r].y + f.rects[r].h, 20);
        }
    }
}

// --- The per-scale table against per-window arithmetic --------------------

/**
 * Reference: one feature scaled and evaluated at one window, rounding
 * every rectangle there, as the scan did before the per-scale table.
 * Sets @p clamped when the image edge shrank a rectangle.
 */
double
referenceEvaluate(const HaarFeature &f, const IntegralImage &ii, int wx,
                  int wy, double scale, double inv_norm, bool *clamped)
{
    double value = 0.0;
    for (int r = 0; r < f.n_rects; ++r) {
        const WeightedRect &rect = f.rects[r];
        const int x = wx + static_cast<int>(std::lround(rect.x * scale));
        const int y = wy + static_cast<int>(std::lround(rect.y * scale));
        int w = static_cast<int>(std::lround(rect.w * scale));
        int h = static_cast<int>(std::lround(rect.h * scale));
        w = std::max(1, w);
        h = std::max(1, h);
        if (x >= ii.width() || y >= ii.height()) {
            continue;
        }
        if (w > ii.width() - x || h > ii.height() - y) {
            *clamped = true;
        }
        w = std::min(w, ii.width() - x);
        h = std::min(h, ii.height() - y);
        const double ideal_area =
            static_cast<double>(rect.w) * rect.h * scale * scale;
        const double actual_area = static_cast<double>(w) * h;
        const double weight =
            static_cast<double>(rect.weight) * ideal_area / actual_area;
        value += weight * static_cast<double>(ii.rectSum(x, y, w, h));
    }
    return value * inv_norm;
}

/** Reference: the cascade on one window, every stage re-scaled there. */
bool
referenceClassify(const Cascade &c, const IntegralImage &ii, int wx, int wy,
                  double scale, CascadeStats &stats, int &clamped)
{
    ++stats.windows;
    const int window = static_cast<int>(std::lround(c.baseSize() * scale));
    const double inv_norm = windowInvNorm(ii, wx, wy, window);
    for (const auto &stage : c.stages()) {
        ++stats.stages_entered;
        stats.features_evaluated += stage.stumps.size();
        double votes = 0.0;
        for (const auto &stump : stage.stumps) {
            bool edge = false;
            const double v = referenceEvaluate(c.features()[stump.feature],
                                               ii, wx, wy, scale, inv_norm,
                                               &edge);
            clamped += edge;
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
    ++stats.windows_accepted;
    return true;
}

HaarFeature
makeFeature(HaarFeature::Kind kind, std::initializer_list<WeightedRect> rs)
{
    HaarFeature f;
    f.kind = kind;
    for (const WeightedRect &r : rs) {
        f.rects[f.n_rects++] = r;
    }
    return f;
}

/**
 * Three stages over features whose rectangles reach the base window's
 * right and bottom edges at odd offsets, so rounding at most scales
 * pushes some of them a pixel past the window.
 */
Cascade
edgeReachingCascade()
{
    using K = HaarFeature::Kind;
    std::vector<HaarFeature> features = {
        makeFeature(K::Edge2H, {{0, 0, 10, 20, 1}, {10, 0, 10, 20, -1}}),
        makeFeature(K::Edge2V, {{1, 3, 19, 7, 1}, {1, 10, 19, 10, -1}}),
        makeFeature(K::Line3H, {{5, 3, 15, 17, 1}, {10, 3, 5, 17, -3}}),
        makeFeature(K::Center4, {{2, 2, 18, 18, 1}, {8, 8, 6, 6, -9}}),
        makeFeature(K::Line3V,
                    {{1, 1, 19, 6, 1}, {1, 7, 19, 7, -2}, {1, 14, 19, 6, 1}}),
        makeFeature(K::Edge2H, {{3, 9, 7, 11, 1}, {10, 9, 7, 11, -1}}),
    };
    auto stump = [](int feature, double threshold, int8_t polarity,
                    double alpha) {
        Stump s;
        s.feature = feature;
        s.threshold = threshold;
        s.polarity = polarity;
        s.alpha = alpha;
        return s;
    };
    std::vector<CascadeStage> stages(3);
    stages[0].stumps = {stump(0, 0.0, 1, 1.0), stump(1, 0.0, -1, 1.0)};
    stages[0].threshold = 1.0;
    stages[1].stumps = {stump(2, 0.01, 1, 0.7), stump(3, -0.01, -1, 0.9),
                        stump(4, 0.0, 1, 0.5)};
    stages[1].threshold = 1.2;
    stages[2].stumps = {stump(5, 0.0, -1, 1.0), stump(0, 0.02, 1, 1.0)};
    stages[2].threshold = 1.5;
    return Cascade(20, std::move(features), std::move(stages));
}

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

TEST(ScaledCascade, BitIdenticalToPerWindowArithmeticAtImageEdges)
{
    const Cascade cascade = edgeReachingCascade();
    int clamped_windows = 0;
    int clamped_values = 0;
    for (const auto &[width, height] : {std::pair{97, 61}, {41, 29}}) {
        Rng rng(static_cast<uint64_t>(width));
        ImageU8 gray(width, height, 1);
        for (auto &v : gray) {
            v = static_cast<uint8_t>(rng.below(256));
        }
        const IntegralImage ii(gray);

        DetectorParams p;
        p.adaptive_step = false;
        p.static_step = 1; // the last window of every row and column is
                           // flush with the image edge
        p.scale_factor = 1.05;
        p.max_window_frac = 2.0;

        // Reference scan: row-major, every window re-scales the cascade.
        std::vector<Rect> want;
        CascadeStats want_stats;
        const std::vector<ScanScale> sweep =
            Detector(cascade, p).scanScales(width, height);
        for (const ScanScale &s : sweep) {
            for (int row = 0; row < s.ny; ++row) {
                for (int col = 0; col < s.nx; ++col) {
                    const int x = col * s.step;
                    const int y = row * s.step;
                    if (referenceClassify(cascade, ii, x, y, s.scale,
                                          want_stats, clamped_windows)) {
                        want.push_back(Rect{x, y, s.window, s.window});
                    }
                }
            }
        }
        ASSERT_GT(want.size(), 0u);
        ASSERT_LT(want.size(), want_stats.windows);
        ASSERT_GT(want_stats.stages_entered, want_stats.windows);

        for (const int threads : {1, 4}) {
            p.exec = ExecPolicy{threads, 1};
            CascadeStats got_stats;
            const std::vector<Rect> got =
                Detector(cascade, p).rawHits(gray, &got_stats);
            ASSERT_EQ(got.size(), want.size()) << width << "x" << height;
            for (size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i], want[i]) << "hit " << i;
            }
            EXPECT_EQ(got_stats.windows, want_stats.windows);
            EXPECT_EQ(got_stats.stages_entered, want_stats.stages_entered);
            EXPECT_EQ(got_stats.features_evaluated,
                      want_stats.features_evaluated);
            EXPECT_EQ(got_stats.windows_accepted,
                      want_stats.windows_accepted);
        }

        // Every feature's value at the windows flush with the right and
        // bottom edges, where rounding can overhang the image.
        for (const ScanScale &s : sweep) {
            if (s.nx == 0 || s.ny == 0) {
                continue;
            }
            const int x_edge = (s.nx - 1) * s.step;
            const int y_edge = (s.ny - 1) * s.step;
            ASSERT_EQ(x_edge + s.window, width);
            ASSERT_EQ(y_edge + s.window, height);
            const std::pair<int, int> origins[] = {
                {x_edge, 0}, {0, y_edge}, {x_edge, y_edge}};
            for (const auto &[wx, wy] : origins) {
                const double inv_norm = windowInvNorm(ii, wx, wy, s.window);
                for (const HaarFeature &f : cascade.features()) {
                    bool edge = false;
                    const double want_v = referenceEvaluate(
                        f, ii, wx, wy, s.scale, inv_norm, &edge);
                    clamped_values += edge;
                    ASSERT_EQ(bits(f.evaluate(ii, wx, wy, s.scale, inv_norm)),
                              bits(want_v))
                        << "window " << wx << "," << wy << " side "
                        << s.window;
                }
            }
        }
    }
    // The sweep must reach the clamp, or it proves nothing about it.
    EXPECT_GT(clamped_windows, 0);
    EXPECT_GT(clamped_values, 0);
}

TEST(CascadeDeathTest, RejectsMalformedRectangles)
{
    auto text = [](const std::string &rect0) {
        return "cascade v1 20 1 1\n0 2 " + rect0 +
               " 10 0 10 20 -1\n1 0.5 0 0 1 1\n";
    };
    // The well-formed model loads.
    EXPECT_EQ(Cascade::deserialize(text("0 0 10 20 1")).stumpCount(), 1u);
    // x = 200 does not fit the int8 field.
    EXPECT_DEATH(Cascade::deserialize(text("200 0 10 20 1")),
                 "field 200 out of int8 range");
    // A 30-wide rectangle on a 20-pixel base.
    EXPECT_DEATH(Cascade::deserialize(text("0 0 30 20 1")),
                 "outside the 20-pixel base window");
    // A zero-width rectangle.
    EXPECT_DEATH(Cascade::deserialize(text("0 0 0 20 1")),
                 "outside the 20-pixel base window");
}

// --- Shared trained cascade ----------------------------------------------

/** Training data: rendered faces vs distractor/background crops. */
class CascadeFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(31);
        auto positives = new std::vector<ImageU8>();
        for (int i = 0; i < 300; ++i) {
            const FaceParams id = identityParams(rng.below(50));
            const FaceVariation var = easyVariation(rng);
            positives->push_back(toU8(renderFace(id, var, 20)));
        }
        pos = positives;

        const NegativeSource negatives = [](Rng &r) {
            return toU8(renderDistractor(r.next(), 20));
        };

        CascadeTrainConfig tc;
        tc.max_features = 700;
        tc.max_stages = 6;
        tc.max_stumps_per_stage = 12;
        tc.negatives_per_stage = 400;
        tc.seed = 11;
        CascadeTrainer trainer(tc);
        report = new CascadeTrainReport();
        cascade = new Cascade(trainer.train(*pos, negatives, report));
    }
    static void
    TearDownTestSuite()
    {
        delete pos;
        delete cascade;
        delete report;
        pos = nullptr;
        cascade = nullptr;
        report = nullptr;
    }

    static std::vector<ImageU8> *pos;
    static Cascade *cascade;
    static CascadeTrainReport *report;
};

std::vector<ImageU8> *CascadeFixture::pos = nullptr;
Cascade *CascadeFixture::cascade = nullptr;
CascadeTrainReport *CascadeFixture::report = nullptr;

TEST_F(CascadeFixture, TrainingMeetsStageTargets)
{
    EXPECT_GE(report->stages, 2);
    EXPECT_GT(report->total_stumps, 4u);
    // Training TPR respects the per-stage floor compounded.
    EXPECT_GT(report->final_tpr, 0.9);
}

TEST_F(CascadeFixture, SeparatesFacesFromDistractors)
{
    Rng rng(77);
    int face_pass = 0;
    const int n = 100;
    for (int i = 0; i < n; ++i) {
        const FaceParams id = identityParams(200 + rng.below(50));
        const FaceVariation var = easyVariation(rng);
        if (cascade->classifyCrop(toU8(renderFace(id, var, 20)))) {
            ++face_pass;
        }
    }
    int neg_pass = 0;
    for (int i = 0; i < n; ++i) {
        if (cascade->classifyCrop(
                toU8(renderDistractor(900 + i, 20)))) {
            ++neg_pass;
        }
    }
    EXPECT_GT(face_pass, 80) << "cascade rejects unseen faces";
    EXPECT_LT(neg_pass, 30) << "cascade accepts clutter";
}

TEST_F(CascadeFixture, EarlyExitSavesFeatures)
{
    // Mean features per window on clutter must be far below the total
    // stump count — the cascade's raison d'etre (Section III-B).
    CascadeStats stats;
    for (int i = 0; i < 50; ++i) {
        cascade->classifyCrop(toU8(renderDistractor(3000 + i, 20)),
                              &stats);
    }
    EXPECT_LT(stats.featuresPerWindow(),
              0.8 * static_cast<double>(cascade->stumpCount()));
}

TEST_F(CascadeFixture, SerializationRoundTrips)
{
    const std::string text = cascade->serialize();
    const Cascade copy = Cascade::deserialize(text);
    EXPECT_EQ(copy.stageCount(), cascade->stageCount());
    EXPECT_EQ(copy.stumpCount(), cascade->stumpCount());
    // Identical decisions on a batch of crops.
    Rng rng(5);
    for (int i = 0; i < 40; ++i) {
        const ImageU8 crop =
            i % 2 ? toU8(renderDistractor(i, 20))
                  : toU8(renderFace(identityParams(i), easyVariation(rng),
                                    20));
        EXPECT_EQ(copy.classifyCrop(crop), cascade->classifyCrop(crop));
    }
}

TEST_F(CascadeFixture, DetectorFindsFaceInScene)
{
    // Place a face in a textured scene and detect it.
    Rng rng(123);
    ImageF scene(160, 120, 1, 0.45f);
    for (int y = 0; y < 120; ++y) {
        for (int x = 0; x < 160; ++x) {
            scene.at(x, y) = 0.4f + 0.1f * ((x / 16 + y / 16) % 2);
        }
    }
    const Rect face_box{50, 30, 48, 48};
    renderFaceInto(scene, identityParams(7), easyVariation(rng), face_box);
    const ImageU8 gray = toU8(scene);

    DetectorParams params;
    params.scale_factor = 1.2;
    params.adaptive_step = true;
    params.adaptive_frac = 0.05;
    params.min_neighbors = 1;
    const Detector detector(*cascade, params);
    const auto detections = detector.detect(gray);

    const Confusion score = scoreDetections(detections, {face_box}, 0.3);
    EXPECT_GE(score.tp, 1u) << "face missed";
}

TEST_F(CascadeFixture, LargerStepScansFewerWindows)
{
    DetectorParams fine;
    fine.adaptive_step = false;
    fine.static_step = 2;
    DetectorParams coarse;
    coarse.adaptive_step = false;
    coarse.static_step = 12;
    const Detector d_fine(*cascade, fine);
    const Detector d_coarse(*cascade, coarse);
    EXPECT_GT(d_fine.windowCount(160, 120),
              4 * d_coarse.windowCount(160, 120));
}

TEST_F(CascadeFixture, AdaptiveStepScalesWithWindow)
{
    DetectorParams p;
    p.adaptive_step = true;
    p.adaptive_frac = 0.1;
    EXPECT_EQ(p.stepFor(20), 2);
    EXPECT_EQ(p.stepFor(100), 10);
    p.adaptive_frac = 0.0;
    EXPECT_EQ(p.stepFor(100), 1); // floor at one pixel
}

TEST_F(CascadeFixture, WindowCountMatchesScan)
{
    DetectorParams p;
    p.adaptive_step = false;
    p.static_step = 6;
    p.scale_factor = 1.5;
    const Detector d(*cascade, p);
    CascadeStats stats;
    ImageU8 gray(97, 61, 1, 128);
    d.rawHits(gray, &stats);
    EXPECT_EQ(stats.windows, d.windowCount(97, 61));
}

TEST_F(CascadeFixture, GroupingMergesOverlaps)
{
    std::vector<Rect> hits = {{10, 10, 20, 20},
                              {12, 11, 20, 20},
                              {11, 12, 20, 20},
                              {80, 80, 20, 20}};
    const auto grouped = groupDetections(hits, 0.5, 2);
    ASSERT_EQ(grouped.size(), 1u);
    EXPECT_EQ(grouped[0].neighbors, 3);
    EXPECT_NEAR(grouped[0].box.x, 11, 1);

    const auto loose = groupDetections(hits, 0.5, 1);
    EXPECT_EQ(loose.size(), 2u);
}

TEST_F(CascadeFixture, AccelCostTracksWork)
{
    const VjAccelModel accel;
    CascadeStats stats;
    const ImageU8 frame = toU8(renderDistractor(1, 20));
    cascade->classifyCrop(frame, &stats);
    const Energy scan = accel.detectEnergy(stats);
    EXPECT_GT(scan.j(), 0.0);

    // Integral construction scales with pixels.
    EXPECT_NEAR(accel.integralEnergy(320, 240).j() /
                    accel.integralEnergy(160, 120).j(),
                4.0, 1e-9);
    // Frame energy well under a millijoule at QQVGA for a sparse scan.
    CascadeStats frame_stats;
    frame_stats.windows = 3000;
    frame_stats.features_evaluated = 9000;
    EXPECT_LT(accel.frameEnergy(160, 120, frame_stats).uj(), 100.0);
    EXPECT_GT(accel.frameTime(160, 120, frame_stats).usec(), 0.0);
}

TEST(Score, GreedyMatchingOneToOne)
{
    std::vector<Detection> dets(3);
    dets[0].box = {0, 0, 10, 10};
    dets[1].box = {1, 1, 10, 10};  // overlaps the same truth
    dets[2].box = {50, 50, 10, 10}; // unmatched
    const std::vector<Rect> truth = {{0, 0, 10, 10}, {80, 80, 8, 8}};
    const Confusion c = scoreDetections(dets, truth, 0.4);
    EXPECT_EQ(c.tp, 1u);
    EXPECT_EQ(c.fp, 2u);
    EXPECT_EQ(c.fn, 1u);
}

TEST(Score, AccumulatorSumsImages)
{
    DetectionScorer scorer(0.4);
    std::vector<Detection> one(1);
    one[0].box = {0, 0, 10, 10};
    scorer.add(one, {{0, 0, 10, 10}});
    scorer.add({}, {{5, 5, 10, 10}});
    EXPECT_EQ(scorer.totals().tp, 1u);
    EXPECT_EQ(scorer.totals().fn, 1u);
}

} // namespace
} // namespace incam
