#include "fa/models.hh"

#include <utility>

#include "common/logging.hh"
#include "image/ops.hh"

namespace incam {

namespace {
constexpr int kCropSide = 20;         ///< the 400-8-1 net's input side
constexpr int kBackgroundFrames = 40; ///< frames the negatives crop
} // namespace

FaModels
trainFaModels(const SecurityVideo &video)
{
    incam_assert(video.frameCount() >= kBackgroundFrames,
                 "FA training crops background from the first ",
                 kBackgroundFrames, " frames; the video has ",
                 video.frameCount());

    // Authentication network on the LFW-substitute dataset.
    FaceDatasetConfig dc;
    dc.identities = 24;
    dc.per_identity = 20;
    dc.size = kCropSide;
    dc.hard = false;          // cooperative, camera-like variation
    dc.framing_jitter = 0.15; // robust to detector-box registration
    dc.seed = 7;
    TrainConfig tc;
    tc.epochs = 120;
    AuthNet auth = trainAuthNet(FaceDataset::generate(dc),
                                video.cfg().enrolled_identity,
                                MlpTopology{{400, 8, 1}}, tc);

    // Cascade positives. The identity is drawn before the variation:
    // as two arguments of one call, their order would be unspecified.
    Rng rng(31);
    std::vector<ImageU8> positives;
    for (int i = 0; i < 250; ++i) {
        const FaceParams id = identityParams(rng.below(40));
        positives.push_back(
            toU8(renderFace(id, easyVariation(rng), kCropSide)));
    }

    // Negatives: half synthetic clutter, half windows from the
    // deployment's background — the bootstrap a real installation runs
    // during commissioning. Training draws ~5x10^5 negatives, so the
    // background frames are rendered once, up front.
    std::vector<ImageU8> background;
    background.reserve(kBackgroundFrames);
    for (int i = 0; i < kBackgroundFrames; ++i) {
        background.push_back(video.frame(i).image);
    }
    const NegativeSource negatives = [&background](Rng &r) {
        if (r.chance(0.5)) {
            return toU8(renderDistractor(r.next(), kCropSide));
        }
        const ImageU8 &f =
            background[static_cast<size_t>(r.below(kBackgroundFrames))];
        const int side = 20 + static_cast<int>(r.below(40));
        const int x = static_cast<int>(r.below(f.width() - side));
        const int y = static_cast<int>(r.below(f.height() - side));
        return resizeNearest(crop(f, Rect{x, y, side, side}), kCropSide,
                             kCropSide);
    };
    CascadeTrainConfig cc;
    cc.max_features = 700;
    cc.max_stages = 6;
    cc.max_stumps_per_stage = 12;
    cc.negatives_per_stage = 400;
    cc.seed = 11;
    CascadeTrainReport report;
    Cascade cascade =
        CascadeTrainer(cc).train(positives, negatives, &report);
    return FaModels{std::move(auth), std::move(cascade), report};
}

} // namespace incam
