/**
 * @file
 * The cascade classifier (Fig. 4b of the paper).
 *
 * A cascade is a sequence of boosted stages of increasing size; a window
 * must pass every stage to be declared a face, and most non-face windows
 * are rejected by the first, tiny stages. The per-window evaluation-count
 * statistics collected here drive the pre-filtering accelerator's energy
 * model: the whole point of using VJ in front of the NN is that rejected
 * windows cost a handful of feature evaluations.
 */

#ifndef INCAM_VJ_CASCADE_HH
#define INCAM_VJ_CASCADE_HH

#include <string>
#include <vector>

#include "vj/haar.hh"

namespace incam {

/** A decision stump: one Haar feature, a threshold, and a vote weight. */
struct Stump
{
    int feature = 0;        ///< index into the cascade's feature table
    double threshold = 0.0;
    int8_t polarity = 1;    ///< +1: value < threshold is "face-like"
    double alpha = 1.0;     ///< AdaBoost vote weight
};

/** One boosted stage. */
struct CascadeStage
{
    std::vector<Stump> stumps;
    double threshold = 0.0; ///< pass when weighted votes >= threshold
};

/** Per-call evaluation counters (for cost models and Fig.-style plots). */
struct CascadeStats
{
    uint64_t windows = 0;
    uint64_t stages_entered = 0;
    uint64_t features_evaluated = 0;
    uint64_t windows_accepted = 0;

    void
    merge(const CascadeStats &o)
    {
        windows += o.windows;
        stages_entered += o.stages_entered;
        features_evaluated += o.features_evaluated;
        windows_accepted += o.windows_accepted;
    }

    /** Mean features per window — the cascade's efficiency headline. */
    double
    featuresPerWindow() const
    {
        return windows ? static_cast<double>(features_evaluated) /
                             static_cast<double>(windows)
                       : 0.0;
    }
};

class Cascade;

/**
 * A cascade's stages with every stump's feature scaled for one window
 * size (ScaledFeature). Detector::rawHits builds one per scan scale and
 * shares it read-only across its row bands, so what stays per window is
 * the variance normalization, four lookups per rectangle and the
 * image-edge clamp.
 */
class ScaledCascade
{
  public:
    ScaledCascade() = default;

    /** Scale @p cascade's stumps for the window lround(base * scale). */
    ScaledCascade(const Cascade &cascade, double scale);

    /**
     * Classify the window at (wx, wy). Early-exits at the first failing
     * stage; updates @p stats if provided.
     */
    bool classify(const IntegralImage &ii, int wx, int wy,
                  CascadeStats *stats = nullptr) const;

  private:
    struct ScaledStump
    {
        Stump stump;
        ScaledFeature feature;
    };
    struct Stage
    {
        std::vector<ScaledStump> stumps;
        double threshold = 0.0;
    };

    int window_size = 0;
    std::vector<Stage> stage_list;
};

/** A trained cascade over a fixed base window. */
class Cascade
{
  public:
    Cascade() = default;

    /**
     * Panics unless every feature has 1-3 rectangles, each at least one
     * pixel wide and high and inside the base window, and every stump
     * names a feature in the table.
     */
    Cascade(int base_size, std::vector<HaarFeature> features,
            std::vector<CascadeStage> stages);

    int baseSize() const { return base; }
    int stageCount() const { return static_cast<int>(stage_list.size()); }
    const std::vector<CascadeStage> &stages() const { return stage_list; }
    const std::vector<HaarFeature> &features() const { return feature_list; }

    /** Total stumps across all stages. */
    size_t stumpCount() const;

    /** Classify a full crop equal to the base window size. */
    bool classifyCrop(const ImageU8 &crop,
                      CascadeStats *stats = nullptr) const;

    /** Serialize to a compact text format (for caching trained models). */
    std::string serialize() const;

    /** Parse the serialize() format. Fatal on malformed input. */
    static Cascade deserialize(const std::string &text);

  private:
    int base = 20;
    std::vector<HaarFeature> feature_list;
    std::vector<CascadeStage> stage_list;
    ScaledCascade unit_scale; ///< the stages at scale 1, for classifyCrop
};

} // namespace incam

#endif // INCAM_VJ_CASCADE_HH
