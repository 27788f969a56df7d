#include "bilateral/stereo.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "exec/parallel.hh"

namespace incam {

BssaStereo::BssaStereo(BssaConfig cfg) : conf(cfg)
{
    incam_assert(conf.max_disparity >= 1, "disparity range must be >= 1");
    incam_assert(conf.block_radius >= 0, "negative block radius");
    incam_assert(conf.solver_iterations >= 1, "need >= 1 solver iteration");
    incam_assert(conf.range_bins >= 2, "need >= 2 range bins");
    incam_assert(conf.cell_spatial >= 1.0, "cell must be >= 1 px");
}

namespace {

/**
 * Columns per block of the WTA loops. A fixed count lets the compiler
 * vectorize each block with no scalar epilogue; columns past the image
 * edge are computed on clamped pixels and never stored.
 */
constexpr int kWtaBlock = 8;

int
roundUpToBlock(int n)
{
    return (n + kWtaBlock - 1) / kWtaBlock * kWtaBlock;
}

/** The two lowest costs so far, and the disparity of the lower, for
 *  one block of columns. */
struct WtaLanes
{
    double best[kWtaBlock];
    double second[kWtaBlock];
    double best_d[kWtaBlock];
};

/**
 * @p img with clamp-to-edge columns on both sides: row y, index k holds
 * column clamp(k - @p left, 0, w - 1), for k in [0, @p pitch).
 */
std::vector<float>
padColumns(const ImageF &img, int left, int pitch)
{
    const int w = img.width();
    std::vector<float> out(static_cast<size_t>(img.height()) * pitch);
    for (int y = 0; y < img.height(); ++y) {
        const float *src = &img.at(0, y);
        float *dst = out.data() + static_cast<size_t>(y) * pitch;
        for (int k = 0; k < pitch; ++k) {
            dst[k] = src[std::clamp(k - left, 0, w - 1)];
        }
    }
    return out;
}

} // namespace

void
BssaStereo::wtaDisparity(const ImageF &left, const ImageF &right,
                         ImageF &disparity, ImageF &confidence,
                         uint64_t *matching_ops) const
{
    incam_assert(left.sameShape(right), "stereo pair shape mismatch");
    incam_assert(left.channels() == 1, "stereo expects grayscale views");

    const int w = left.width();
    const int h = left.height();
    const int r = conf.block_radius;
    const int side = 2 * r + 1;
    disparity = ImageF(w, h, 1);
    confidence = ImageF(w, h, 1);
    // Disparity d can only match columns x >= d.
    const int d_last = std::min(conf.max_disparity, w - 1);
    const int wb = roundUpToBlock(w);
    // A cost row holds |L - R| at columns -r .. pitch - 1 - r: every
    // tap of the blocks' columns 0 .. wb - 1.
    const int pitch = roundUpToBlock(wb + 2 * r);
    // The views padded once, so a cost row reads no clamp: the right
    // view reaches d_last columns further left.
    const int rpitch = pitch + d_last;
    const std::vector<float> lpad = padColumns(left, r, pitch);
    const std::vector<float> rpad = padColumns(right, r + d_last, rpitch);
    const double taps = (2.0 * r + 1.0) * (2.0 * r + 1.0);

    // Each output pixel is independent: row-parallel, bit-identical at
    // any partitioning.
    parallel_for(0, h, conf.exec, [&](int64_t row0, int64_t row1) {
        std::vector<double> cost(static_cast<size_t>(side) * pitch);
        std::vector<WtaLanes> lanes(wb / kWtaBlock);
        for (int y = static_cast<int>(row0); y < row1; ++y) {
            for (WtaLanes &l : lanes) {
                std::fill(std::begin(l.best), std::end(l.best), 1e30);
                std::fill(std::begin(l.second), std::end(l.second), 1e30);
                std::fill(std::begin(l.best_d), std::end(l.best_d), 0.0);
            }
            for (int d = 0; d <= d_last; ++d) {
                // Each |L - R| the window rows tap, once.
                for (int dy = 0; dy < side; ++dy) {
                    const auto yy =
                        static_cast<size_t>(std::clamp(y + dy - r, 0, h - 1));
                    const float *lrow = lpad.data() + yy * pitch;
                    const float *rrow =
                        rpad.data() + yy * rpitch + (d_last - d);
                    double *out = cost.data() + dy * pitch;
                    for (int xb = 0; xb < pitch; xb += kWtaBlock) {
                        for (int i = 0; i < kWtaBlock; ++i) {
                            out[xb + i] =
                                std::fabs(lrow[xb + i] - rrow[xb + i]);
                        }
                    }
                }
                // Sum each pixel's taps in the window's dy-then-dx order,
                // then keep the two lowest costs. Blocks left of d hold
                // no pixel that can match d. The update is selects, with
                // `&` and d converted outside the loop: GCC if-converts
                // (and so vectorizes) no branch that may trap a float.
                const double dd = d;
                for (int xb = d / kWtaBlock * kWtaBlock; xb < wb;
                     xb += kWtaBlock) {
                    double sad[kWtaBlock] = {};
                    for (int dy = 0; dy < side; ++dy) {
                        const double *row = cost.data() + dy * pitch + xb;
                        for (int dx = 0; dx < side; ++dx) {
                            for (int i = 0; i < kWtaBlock; ++i) {
                                sad[i] += row[i + dx];
                            }
                        }
                    }
                    WtaLanes &l = lanes[xb / kWtaBlock];
                    for (int i = 0; i < kWtaBlock; ++i) {
                        const double c = sad[i];
                        const double b = l.best[i];
                        const double s = l.second[i];
                        const bool valid = xb + i >= d;
                        const bool lower = valid & (c < b);
                        const double runner = (valid & (c < s)) ? c : s;
                        l.second[i] = lower ? b : runner;
                        l.best[i] = lower ? c : b;
                        l.best_d[i] = lower ? dd : l.best_d[i];
                    }
                }
            }
            for (int x = 0; x < w; ++x) {
                const WtaLanes &l = lanes[x / kWtaBlock];
                const int i = x % kWtaBlock;
                disparity.at(x, y) = static_cast<float>(l.best_d[i]);
                // Peak-ratio confidence: decisive minima are trustworthy.
                const double margin = (l.second[i] - l.best[i]) / taps;
                confidence.at(x, y) = static_cast<float>(
                    std::clamp(margin * 12.0, 0.02, 1.0));
            }
        }
    });
    if (matching_ops) {
        *matching_ops += static_cast<uint64_t>(
            static_cast<double>(w) * h * (conf.max_disparity + 1) * taps *
            3.0); // sub, abs, accumulate
    }
}

ImageF
BssaStereo::refine(const ImageF &guide, const ImageF &noisy,
                   const ImageF &confidence, size_t *vertices,
                   GridOpCounts *ops) const
{
    // Normalize disparity into [0, 1] for grid storage.
    const float inv_range = 1.0f / static_cast<float>(conf.max_disparity);
    ImageF normalized(noisy.width(), noisy.height(), 1);
    for (int y = 0; y < noisy.height(); ++y) {
        for (int x = 0; x < noisy.width(); ++x) {
            normalized.at(x, y) = noisy.at(x, y) * inv_range;
        }
    }

    // Data grid: splatted once, re-attached every round.
    BilateralGrid data(guide.width(), guide.height(), conf.cell_spatial,
                       conf.range_bins);
    data.splat(guide, normalized, &confidence, ops, conf.exec);
    if (vertices) {
        *vertices = data.vertexCount();
    }

    BilateralGrid solution = data;
    for (int it = 0; it < conf.solver_iterations; ++it) {
        solution.blur(ops, conf.exec);
        solution.blendData(data, conf.data_lambda);
    }

    ImageF sliced = solution.slice(guide, 0.0f, ops, conf.exec);
    for (int y = 0; y < sliced.height(); ++y) {
        for (int x = 0; x < sliced.width(); ++x) {
            sliced.at(x, y) = std::clamp(
                sliced.at(x, y) * static_cast<float>(conf.max_disparity),
                0.0f, static_cast<float>(conf.max_disparity));
        }
    }
    return sliced;
}

BssaResult
BssaStereo::compute(const ImageF &left, const ImageF &right) const
{
    BssaResult res;
    wtaDisparity(left, right, res.raw_disparity, res.confidence,
                 &res.ops.matching_ops);
    res.disparity = refine(left, res.raw_disparity, res.confidence,
                           &res.grid_vertices, &res.ops.grid);
    return res;
}

} // namespace incam
