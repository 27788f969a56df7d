/**
 * @file
 * Rectangular Haar-like features (Viola & Jones, IJCV 2004).
 *
 * A Haar feature is a weighted sum of 2-4 axis-aligned rectangle sums
 * inside a base detection window (20x20 here, matching the NN input of
 * the paper's pipeline). With an integral image each rectangle sum costs
 * four lookups, so a feature evaluation is a handful of adds — the
 * property that makes the cascade cheap on non-face windows and a good
 * fit for a pre-filtering accelerator (Section III-B).
 *
 * Feature values are normalized by the window's intensity standard
 * deviation (lighting invariance), exactly as in the original algorithm.
 */

#ifndef INCAM_VJ_HAAR_HH
#define INCAM_VJ_HAAR_HH

#include <cstdint>
#include <vector>

#include "image/integral.hh"

namespace incam {

/** One weighted rectangle of a Haar feature, in base-window coords. */
struct WeightedRect
{
    int8_t x = 0;
    int8_t y = 0;
    int8_t w = 0;
    int8_t h = 0;
    int8_t weight = 0; ///< typically +1/-1/+2/-2
};

/** A Haar-like feature: up to three weighted rectangles. */
struct HaarFeature
{
    /** Feature archetypes, following the original paper's set. */
    enum class Kind : uint8_t
    {
        Edge2H,   ///< two rects side by side (vertical edge)
        Edge2V,   ///< two rects stacked (horizontal edge)
        Line3H,   ///< three rects in a row (vertical line / eye band)
        Line3V,   ///< three rects in a column
        Center4,  ///< center-surround (implemented as 2 rects)
    };

    Kind kind = Kind::Edge2H;
    WeightedRect rects[3];
    uint8_t n_rects = 0;

    /**
     * Evaluate at window origin (wx, wy) scaled by @p scale, normalized
     * by @p inv_norm = 1 / (window_area * stddev): ScaledFeature(*this,
     * scale).evaluate(...).
     */
    double evaluate(const IntegralImage &ii, int wx, int wy, double scale,
                    double inv_norm) const;

    /** Number of integral-image lookups one evaluation performs. */
    int lookupCount() const { return 4 * n_rects; }
};

/** One rectangle of a ScaledFeature, in pixels relative to the window. */
struct ScaledRect
{
    int x = 0;
    int y = 0;
    int w = 1;
    int h = 1;
    double weighted_area = 0.0; ///< weight x unrounded scaled area
    double weight = 0.0;        ///< weighted_area / (w * h)
};

/**
 * A HaarFeature rounded for one window size. Each rectangle's offset,
 * size and area-compensated weight depend only on the scale, so a scan
 * builds this once per scale and evaluates it at every window.
 */
struct ScaledFeature
{
    ScaledRect rects[3];
    int n_rects = 0;

    /**
     * Round each rectangle of @p feature at @p scale (sizes floor at one
     * pixel) and compensate its weight for the area quantization, so
     * feature values stay comparable across scales.
     */
    ScaledFeature(const HaarFeature &feature, double scale);

    /**
     * Evaluate at window origin (wx, wy), normalized by @p inv_norm.
     * Rounding can push a rectangle a pixel past the window; where that
     * crosses the image edge the rectangle is clamped to the image and
     * its weight recompensated for the area it keeps.
     */
    double evaluate(const IntegralImage &ii, int wx, int wy,
                    double inv_norm) const;
};

/**
 * Deterministically enumerate a feature pool over a @p base x base
 * window. @p position_stride / @p size_stride thin the enumeration so
 * training stays tractable; stride 1 yields the full Viola-Jones pool.
 */
std::vector<HaarFeature> enumerateFeatures(int base, int position_stride,
                                           int size_stride);

/**
 * Precompute 1 / (area * stddev) for a window — shared by all features
 * evaluated at that window. Returns 0 for flat (zero-variance) windows,
 * which makes every feature evaluate to 0 there.
 */
double windowInvNorm(const IntegralImage &ii, int wx, int wy,
                     int window_size);

} // namespace incam

#endif // INCAM_VJ_HAAR_HH
