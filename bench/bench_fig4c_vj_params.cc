/**
 * @file
 * E4 — Fig. 4c: "Impact of VJ parameters on relative accuracy".
 *
 * Trains one detection cascade, then sweeps the three scan parameters
 * of the figure — scale factor, static step size (pixels), adaptive
 * step size (fraction of window) — evaluating F1 / precision / recall
 * over a batch of synthetic scenes with known face boxes. As in the
 * figure, each metric is reported *relative* to its best value within
 * the sweep. Shapes to reproduce: accuracy falls as the scale factor
 * and static step grow; the adaptive step tolerates small fractions
 * and then degrades.
 */

#include <vector>

#include "bench_common.hh"
#include "common/table.hh"
#include "image/ops.hh"
#include "vj/score.hh"
#include "vj/train.hh"
#include "workload/facegen.hh"

using namespace incam;

namespace {

/** A test scene: textured background plus one known face. */
struct Scene
{
    ImageU8 image;
    Rect face;
};

std::vector<Scene>
makeScenes(int count, uint64_t seed)
{
    std::vector<Scene> scenes;
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
        ImageF img(160, 120, 1);
        for (int y = 0; y < 120; ++y) {
            for (int x = 0; x < 160; ++x) {
                img.at(x, y) = 0.35f + 0.15f * ((x / 20 + y / 20) % 2) +
                               static_cast<float>(rng.uniform(-.02, .02));
            }
        }
        const int side = 32 + static_cast<int>(rng.below(48));
        Scene s;
        s.face = Rect{static_cast<int>(rng.below(160 - side)),
                      static_cast<int>(rng.below(120 - side)), side, side};
        const FaceParams id = identityParams(100 + rng.below(50));
        renderFaceInto(img, id, easyVariation(rng), s.face);
        s.image = toU8(img);
        scenes.push_back(std::move(s));
    }
    return scenes;
}

Confusion
scoreParams(const Cascade &cascade, const DetectorParams &params,
            const std::vector<Scene> &scenes)
{
    const Detector detector(cascade, params);
    DetectionScorer scorer(0.35);
    for (const Scene &s : scenes) {
        scorer.add(detector.detect(s.image), {s.face});
    }
    return scorer.totals();
}

struct SweepPoint
{
    std::string label;
    Confusion score;
    uint64_t windows;
};

void
printRelative(const std::string &title,
              const std::vector<SweepPoint> &points)
{
    double best_f1 = 1e-9, best_p = 1e-9, best_r = 1e-9;
    for (const auto &pt : points) {
        best_f1 = std::max(best_f1, pt.score.f1());
        best_p = std::max(best_p, pt.score.precision());
        best_r = std::max(best_r, pt.score.recall());
    }
    TableWriter table({"parameter", "rel F1 %", "rel precision %",
                       "rel recall %", "abs F1", "windows/frame"});
    for (const auto &pt : points) {
        table.addRow(
            {pt.label,
             TableWriter::num(100.0 * pt.score.f1() / best_f1, 1),
             TableWriter::num(100.0 * pt.score.precision() / best_p, 1),
             TableWriter::num(100.0 * pt.score.recall() / best_r, 1),
             TableWriter::num(pt.score.f1(), 3),
             TableWriter::num(static_cast<long long>(pt.windows))});
    }
    table.print(title);
}

} // namespace

int
main()
{
    banner("E4 (Fig. 4c)", "VJ scan-parameter sensitivity");
    paperSays("relative accuracy falls with scale factor and static "
              "step; adaptive step tolerates small fractions");

    // Train the cascade (the figure holds the model fixed).
    Rng rng(31);
    std::vector<ImageU8> positives;
    for (int i = 0; i < 300; ++i) {
        const FaceParams id = identityParams(rng.below(50));
        positives.push_back(toU8(renderFace(id, easyVariation(rng), 20)));
    }
    const NegativeSource negatives = [](Rng &r) {
        return toU8(renderDistractor(r.next(), 20));
    };
    CascadeTrainConfig tc;
    tc.max_features = 700;
    tc.max_stages = 6;
    tc.max_stumps_per_stage = 12;
    tc.negatives_per_stage = 400;
    tc.seed = 11;
    CascadeTrainReport report;
    const Cascade cascade =
        CascadeTrainer(tc).train(positives, negatives, &report);
    std::printf("cascade: %d stages, %zu stumps, train TPR %.3f\n",
                report.stages, report.total_stumps, report.final_tpr);

    const auto scenes = makeScenes(24, 5);

    // Grouping at min_neighbors = 2, as in the classic detector: dense
    // scans then self-filter (true faces produce many raw hits, noise
    // rarely produces two overlapping ones).
    DetectorParams base;
    base.scale_factor = 1.25;
    base.adaptive_step = true;
    base.adaptive_frac = 0.05;
    base.min_neighbors = 2;

    // --- sweep 1: scale factor ---
    std::vector<SweepPoint> scale_pts;
    for (double sf : {1.25, 1.50, 1.75, 2.00}) {
        DetectorParams p = base;
        p.scale_factor = sf;
        const Detector d(cascade, p);
        scale_pts.push_back({TableWriter::num(sf, 2),
                             scoreParams(cascade, p, scenes),
                             d.windowCount(160, 120)});
    }
    printRelative("scale factor sweep (adaptive step 0.05)", scale_pts);

    // --- sweep 2: static step size (pixels) ---
    std::vector<SweepPoint> static_pts;
    for (int step : {4, 8, 12, 16}) {
        DetectorParams p = base;
        p.adaptive_step = false;
        p.static_step = step;
        const Detector d(cascade, p);
        static_pts.push_back({TableWriter::num(step) + " px",
                              scoreParams(cascade, p, scenes),
                              d.windowCount(160, 120)});
    }
    printRelative("static step-size sweep (scale 1.25)", static_pts);

    // --- sweep 3: adaptive step size (fraction of window) ---
    std::vector<SweepPoint> adaptive_pts;
    for (double frac : {0.0, 0.1, 0.2, 0.3, 0.4}) {
        DetectorParams p = base;
        p.adaptive_step = true;
        p.adaptive_frac = frac;
        const Detector d(cascade, p);
        adaptive_pts.push_back({TableWriter::num(frac, 1),
                                scoreParams(cascade, p, scenes),
                                d.windowCount(160, 120)});
    }
    printRelative("adaptive step-size sweep (scale 1.25)", adaptive_pts);
    return 0;
}
