/**
 * @file
 * Tests for the bilateral grid, edge-aware filtering (Fig. 6), and
 * bilateral-space stereo (BSSA).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "bilateral/bilateral_filter.hh"
#include "bilateral/stereo.hh"
#include "common/rng.hh"
#include "image/metrics.hh"
#include "image/ops.hh"
#include "workload/stereo_scene.hh"

namespace incam {
namespace {

TEST(Grid, DimensionsFromCellSizes)
{
    const BilateralGrid g(64, 32, 8.0, 8);
    EXPECT_EQ(g.gx(), 9);  // ceil(64/8)+1
    EXPECT_EQ(g.gy(), 5);  // ceil(32/8)+1
    EXPECT_EQ(g.gz(), 9);  // bins+1
    EXPECT_EQ(g.vertexCount(), 9u * 5u * 9u);
    EXPECT_DOUBLE_EQ(g.byteSize().b(), 9.0 * 5 * 9 * 8);
}

TEST(Grid, SplatSliceRoundTripConstant)
{
    // A constant image splats and slices back to itself exactly.
    ImageF img(32, 24, 1, 0.5f);
    BilateralGrid g(32, 24, 4.0, 8);
    g.splat(img, img, nullptr);
    const ImageF out = g.slice(img);
    for (float v : out) {
        EXPECT_NEAR(v, 0.5f, 1e-5);
    }
}

TEST(Grid, SplatConservesMass)
{
    const ImageF img = []() {
        ImageF i(16, 16, 1);
        for (int y = 0; y < 16; ++y) {
            for (int x = 0; x < 16; ++x) {
                i.at(x, y) = static_cast<float>((x + y) / 32.0);
            }
        }
        return i;
    }();
    BilateralGrid g(16, 16, 4.0, 8);
    g.splat(img, img, nullptr);
    double mass = 0.0;
    for (int k = 0; k < g.gz(); ++k) {
        for (int j = 0; j < g.gy(); ++j) {
            for (int i = 0; i < g.gx(); ++i) {
                mass += g.vertexWeight(i, j, k);
            }
        }
    }
    // Trilinear weights per pixel sum to exactly 1.
    EXPECT_NEAR(mass, 256.0, 1e-3);
}

TEST(Grid, BlurConservesMass)
{
    ImageF img(16, 16, 1, 0.25f);
    BilateralGrid g(16, 16, 4.0, 8);
    g.splat(img, img, nullptr);
    auto total = [&]() {
        double m = 0.0;
        for (int k = 0; k < g.gz(); ++k) {
            for (int j = 0; j < g.gy(); ++j) {
                for (int i = 0; i < g.gx(); ++i) {
                    m += g.vertexWeight(i, j, k);
                }
            }
        }
        return m;
    };
    const double before = total();
    g.blur();
    const double after = total();
    // Clamped-end [1 2 1]/4 loses a little mass at boundaries only.
    EXPECT_NEAR(after, before, before * 0.35);
    EXPECT_GT(after, 0.0);
}

TEST(Grid, OpCountersTrackWork)
{
    ImageF img(20, 10, 1, 0.5f);
    BilateralGrid g(20, 10, 4.0, 8);
    GridOpCounts ops;
    g.splat(img, img, nullptr, &ops);
    EXPECT_EQ(ops.splat_ops, 200u * 40u);
    g.blur(&ops);
    EXPECT_EQ(ops.blur_vertex_visits, g.vertexCount() * 3);
    g.slice(img, 0.0f, &ops);
    EXPECT_EQ(ops.slice_ops, 200u * 35u);
}

TEST(Grid, ConfidenceWeightsBias)
{
    // Two pixel populations in one cell; confidence 0 on one of them
    // means the slice returns the other's value.
    ImageF guide(2, 1, 1);
    guide.at(0, 0) = 0.5f;
    guide.at(1, 0) = 0.5f;
    ImageF value(2, 1, 1);
    value.at(0, 0) = 1.0f;
    value.at(1, 0) = 0.0f;
    ImageF conf(2, 1, 1);
    conf.at(0, 0) = 1.0f;
    conf.at(1, 0) = 0.0f;
    BilateralGrid g(2, 1, 4.0, 4);
    g.splat(guide, value, &conf);
    const ImageF out = g.slice(guide);
    EXPECT_NEAR(out.at(0, 0), 1.0f, 1e-5);
    EXPECT_NEAR(out.at(1, 0), 1.0f, 1e-5); // inherits confident neighbor
}

TEST(BilateralFilter, GridApproximatesReference)
{
    StereoSceneConfig scfg;
    scfg.width = 48;
    scfg.height = 36;
    scfg.noise = 0.03;
    const ImageF img = makeStereoPair(scfg).left;

    const ImageF ref = bilateralFilterReference(img, 2.0, 0.15);
    const ImageF fast = bilateralFilterGrid(img, 2.0, 8, 1);
    // The grid is an approximation; it must land close to the true
    // bilateral output and much closer than the raw input.
    EXPECT_LT(mse(ref, fast), mse(ref, img));
    EXPECT_GT(psnr(ref, fast), 20.0);
}

TEST(Fig6, BilateralPreservesEdgeMovingAverageDoesNot)
{
    const auto noisy = makeNoisyStep(128, 0.25f, 0.75f, 0.05f, 42);
    const auto averaged = movingAverage1d(noisy, 8);
    const auto bilateral = bilateralFilter1d(noisy, 6.0, 12, 2);

    const double err_avg = stepEdgeError(averaged, 0.25f, 0.75f);
    const double err_bil = stepEdgeError(bilateral, 0.25f, 0.75f);
    // Fig. 6's demonstration: the bilateral filter keeps the edge.
    EXPECT_LT(err_bil, err_avg * 0.6);

    // Away from the edge both should denoise; check the bilateral one.
    double noise_in = 0.0, noise_out = 0.0;
    for (int i = 8; i < 48; ++i) {
        noise_in += std::fabs(noisy[static_cast<size_t>(i)] - 0.25f);
        noise_out +=
            std::fabs(bilateral[static_cast<size_t>(i)] - 0.25f);
    }
    EXPECT_LT(noise_out, noise_in);
}

class BssaFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        StereoSceneConfig cfg;
        cfg.width = 160;
        cfg.height = 120;
        cfg.max_disparity = 14;
        cfg.layers = 4;
        cfg.noise = 0.015;
        cfg.seed = 77;
        scene = new StereoPair(makeStereoPair(cfg));
    }
    static void
    TearDownTestSuite()
    {
        delete scene;
        scene = nullptr;
    }

    static StereoPair *scene;
};

StereoPair *BssaFixture::scene = nullptr;

TEST_F(BssaFixture, WtaFindsApproximateDisparity)
{
    BssaConfig cfg;
    cfg.max_disparity = 16;
    const BssaStereo stereo(cfg);
    ImageF disp, conf;
    stereo.wtaDisparity(scene->left, scene->right, disp, conf);

    double err = 0.0;
    int n = 0;
    for (int y = 4; y < disp.height() - 4; ++y) {
        for (int x = 20; x < disp.width() - 4; ++x) {
            err += std::fabs(disp.at(x, y) - scene->disparity.at(x, y));
            ++n;
        }
    }
    // Noisy but in the right ballpark (a couple of pixels on average).
    EXPECT_LT(err / n, 3.0);
}

TEST_F(BssaFixture, RefinementImprovesOnWta)
{
    BssaConfig cfg;
    cfg.max_disparity = 16;
    cfg.solver_iterations = 12;
    const BssaStereo stereo(cfg);
    const BssaResult res = stereo.compute(scene->left, scene->right);

    auto mae = [&](const ImageF &d) {
        double err = 0.0;
        int n = 0;
        for (int y = 4; y < d.height() - 4; ++y) {
            for (int x = 20; x < d.width() - 4; ++x) {
                err += std::fabs(d.at(x, y) - scene->disparity.at(x, y));
                ++n;
            }
        }
        return err / n;
    };
    const double raw_err = mae(res.raw_disparity);
    const double refined_err = mae(res.disparity);
    // The whole point of BSSA: bilateral-space smoothing denoises the
    // WTA estimate without destroying depth edges.
    EXPECT_LT(refined_err, raw_err);
}

TEST_F(BssaFixture, OpCountsPopulated)
{
    BssaConfig cfg;
    cfg.max_disparity = 8;
    cfg.solver_iterations = 4;
    const BssaStereo stereo(cfg);
    const BssaResult res = stereo.compute(scene->left, scene->right);
    EXPECT_GT(res.ops.matching_ops, 0u);
    EXPECT_GT(res.ops.grid.splat_ops, 0u);
    EXPECT_GT(res.ops.grid.slice_ops, 0u);
    EXPECT_EQ(res.ops.filterVisits(),
              res.grid_vertices * 3 * cfg.solver_iterations);
}

TEST_F(BssaFixture, CoarserGridIsCheaperButWorse)
{
    // The Fig. 7 tradeoff: growing cells shrinks the grid (cheaper)
    // and degrades depth quality, monotonically at the extremes.
    auto quality = [&](double cell, size_t *vertices) {
        BssaConfig cfg;
        cfg.max_disparity = 16;
        cfg.cell_spatial = cell;
        cfg.solver_iterations = 10;
        const BssaStereo stereo(cfg);
        const BssaResult res = stereo.compute(scene->left, scene->right);
        *vertices = res.grid_vertices;
        // Compare normalized disparity maps.
        ImageF got = res.disparity;
        ImageF want = scene->disparity;
        for (float &v : got) {
            v /= 16.0f;
        }
        for (float &v : want) {
            v /= 16.0f;
        }
        return msSsim(want, got);
    };

    size_t v_fine = 0, v_coarse = 0;
    const double q_fine = quality(4.0, &v_fine);
    const double q_coarse = quality(32.0, &v_coarse);
    EXPECT_GT(v_fine, 10 * v_coarse);
    EXPECT_GT(q_fine, q_coarse);
}

TEST(Bssa, HandlesFlatScene)
{
    // Degenerate (textureless) input must not crash or emit NaNs.
    ImageF flat_l(40, 30, 1, 0.5f);
    ImageF flat_r(40, 30, 1, 0.5f);
    BssaConfig cfg;
    cfg.max_disparity = 8;
    cfg.solver_iterations = 3;
    const BssaResult res = BssaStereo(cfg).compute(flat_l, flat_r);
    for (float v : res.disparity) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 8.0f);
    }
}

// --- Bit-identity against the per-pixel and per-vertex arithmetic ------

/** 1 and 4 threads at grains 1 and 3; threads 0 follows INCAM_THREADS. */
const ExecPolicy kPolicies[] = {ExecPolicy{1, 1}, ExecPolicy{1, 3},
                                ExecPolicy{4, 1}, ExecPolicy{4, 3},
                                ExecPolicy::parallel(3)};

uint32_t
bits(float v)
{
    return std::bit_cast<uint32_t>(v);
}

/**
 * A copy of the per-pixel WTA that BssaStereo::wtaDisparity replaced:
 * two clamped loads per tap, the taps summed in double in dy-then-dx
 * order. @p column_first sums dx-then-dy instead, to show the test
 * images make the order visible.
 */
void
referenceWta(const BssaConfig &conf, const ImageF &left,
             const ImageF &right, ImageF &disparity, ImageF &confidence,
             uint64_t *matching_ops, bool column_first = false)
{
    const int w = left.width();
    const int h = left.height();
    const int r = conf.block_radius;
    disparity = ImageF(w, h, 1);
    confidence = ImageF(w, h, 1);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            double best = 1e30;
            double second = 1e30;
            int best_d = 0;
            const int d_max = std::min(conf.max_disparity, x);
            for (int d = 0; d <= d_max; ++d) {
                double sad = 0.0;
                for (int a = -r; a <= r; ++a) {
                    for (int b = -r; b <= r; ++b) {
                        const int dy = column_first ? b : a;
                        const int dx = column_first ? a : b;
                        const float lv = left.atClamped(x + dx, y + dy);
                        const float rv = right.atClamped(x - d + dx, y + dy);
                        sad += std::fabs(lv - rv);
                    }
                }
                if (sad < best) {
                    second = best;
                    best = sad;
                    best_d = d;
                } else if (sad < second) {
                    second = sad;
                }
            }
            disparity.at(x, y) = static_cast<float>(best_d);
            const double taps = (2.0 * r + 1.0) * (2.0 * r + 1.0);
            const double margin = (second - best) / taps;
            confidence.at(x, y) =
                static_cast<float>(std::clamp(margin * 12.0, 0.02, 1.0));
        }
    }
    const double taps = (2.0 * r + 1.0) * (2.0 * r + 1.0);
    *matching_ops += static_cast<uint64_t>(static_cast<double>(w) * h *
                                           (conf.max_disparity + 1) *
                                           taps * 3.0);
}

/** A grid's (value, weight) arrays in index order. */
struct GridArrays
{
    int nx, ny, nz;
    std::vector<float> val;
    std::vector<float> wgt;

    explicit GridArrays(const BilateralGrid &g)
        : nx(g.gx()), ny(g.gy()), nz(g.gz())
    {
        for (int k = 0; k < nz; ++k) {
            for (int j = 0; j < ny; ++j) {
                for (int i = 0; i < nx; ++i) {
                    val.push_back(g.vertexValue(i, j, k));
                    wgt.push_back(g.vertexWeight(i, j, k));
                }
            }
        }
    }

    void
    storeInto(BilateralGrid &g) const
    {
        size_t idx = 0;
        for (int k = 0; k < nz; ++k) {
            for (int j = 0; j < ny; ++j) {
                for (int i = 0; i < nx; ++i, ++idx) {
                    g.setVertex(i, j, k, val[idx], wgt[idx]);
                }
            }
        }
    }
};

/**
 * A copy of the per-vertex blur that BilateralGrid::blur replaced: an
 * axis ternary and two clamped-end branches per vertex.
 */
void
referenceBlur(GridArrays &g)
{
    std::vector<float> new_val(g.val.size());
    std::vector<float> new_wgt(g.wgt.size());
    auto pass = [&](int axis) {
        const int dims[3] = {g.nx, g.ny, g.nz};
        const size_t strides[3] = {1, static_cast<size_t>(g.nx),
                                   static_cast<size_t>(g.nx) * g.ny};
        const int n = dims[axis];
        const size_t stride = strides[axis];
        for (int k = 0; k < g.nz; ++k) {
            for (int j = 0; j < g.ny; ++j) {
                size_t idx = (static_cast<size_t>(k) * g.ny + j) * g.nx;
                for (int i = 0; i < g.nx; ++i, ++idx) {
                    const int pos = axis == 0 ? i : axis == 1 ? j : k;
                    const size_t lo = pos > 0 ? idx - stride : idx;
                    const size_t hi = pos < n - 1 ? idx + stride : idx;
                    new_val[idx] = 0.25f * (g.val[lo] + 2.0f * g.val[idx] +
                                            g.val[hi]);
                    new_wgt[idx] = 0.25f * (g.wgt[lo] + 2.0f * g.wgt[idx] +
                                            g.wgt[hi]);
                }
            }
        }
        g.val.swap(new_val);
        g.wgt.swap(new_wgt);
    };
    pass(0);
    pass(1);
    pass(2);
}

/**
 * Pixels of exactly 0.5 mixed with pixels near 1e-17 and exact zeros.
 * A window's |L - R| terms then differ by far more than double precision
 * spans, so the order of the sum decides which small terms survive, and
 * disparities whose 0.5 terms tie are told apart by those bits alone.
 */
ImageF
mixedMagnitudes(int w, int h, uint64_t seed)
{
    Rng rng(seed);
    ImageF img(w, h, 1);
    for (float &v : img) {
        const uint64_t kind = rng.below(3);
        v = kind == 0   ? 0.5f
            : kind == 1 ? static_cast<float>(1e-17 * (1.0 + 5.0 *
                                                      rng.uniform()))
                        : 0.0f;
    }
    return img;
}

void
expectBitIdentical(const ImageF &want, const ImageF &got,
                   const std::string &what)
{
    ASSERT_TRUE(want.sameShape(got)) << what;
    for (int y = 0; y < want.height(); ++y) {
        for (int x = 0; x < want.width(); ++x) {
            ASSERT_EQ(bits(want.at(x, y)), bits(got.at(x, y)))
                << what << " pixel " << x << "," << y;
        }
    }
}

TEST(BssaBitIdentity, WtaMatchesPerPixelArithmetic)
{
    struct Shape
    {
        int w, h;
    };
    // Narrower than the disparity range, not a multiple of the 8-column
    // block, one row, and one block wide.
    const Shape shapes[] = {{13, 9}, {37, 11}, {29, 1}, {8, 4}};
    int order_visible = 0;
    uint64_t seed = 1;
    for (const Shape &sh : shapes) {
        const ImageF left = mixedMagnitudes(sh.w, sh.h, seed++);
        const ImageF right = mixedMagnitudes(sh.w, sh.h, seed++);
        for (int radius = 0; radius <= 2; ++radius) {
            BssaConfig cfg;
            cfg.max_disparity = 24;
            cfg.block_radius = radius;
            ImageF want_disp, want_conf;
            uint64_t want_ops = 0;
            referenceWta(cfg, left, right, want_disp, want_conf, &want_ops);
            ImageF col_disp, col_conf;
            uint64_t col_ops = 0;
            referenceWta(cfg, left, right, col_disp, col_conf, &col_ops,
                         true);
            for (int p = 0; p < want_disp.height(); ++p) {
                for (int x = 0; x < want_disp.width(); ++x) {
                    order_visible +=
                        bits(want_disp.at(x, p)) != bits(col_disp.at(x, p));
                }
            }
            for (const ExecPolicy pol : kPolicies) {
                cfg.exec = pol;
                ImageF disp, conf;
                uint64_t ops = 0;
                BssaStereo(cfg).wtaDisparity(left, right, disp, conf, &ops);
                const std::string what =
                    std::to_string(sh.w) + "x" + std::to_string(sh.h) +
                    " r" + std::to_string(radius) + " threads " +
                    std::to_string(pol.threads) + " grain " +
                    std::to_string(pol.grain);
                expectBitIdentical(want_disp, disp, "disparity " + what);
                expectBitIdentical(want_conf, conf, "confidence " + what);
                EXPECT_EQ(ops, want_ops) << what;
            }
        }
    }
    // A column-first sum must change some disparity, or the images
    // prove nothing about the summation order.
    EXPECT_GT(order_visible, 0);
}

TEST(BssaBitIdentity, BlurMatchesPerVertexArithmetic)
{
    struct Dims
    {
        int w, h, bins;
        double cell;
    };
    // Grids of 2x2x3, 3x2x3, 2x5x4, 9x7x6 and a VR pair's 25x37x17.
    const Dims dims[] = {
        {1, 1, 2, 1.0}, {2, 1, 2, 1.0}, {1, 4, 3, 1.0},
        {31, 23, 5, 4.0}, {96, 144, 16, 4.0}};
    uint64_t seed = 100;
    for (const Dims &dm : dims) {
        BilateralGrid start(dm.w, dm.h, dm.cell, dm.bins);
        Rng rng(seed++);
        for (int k = 0; k < start.gz(); ++k) {
            for (int j = 0; j < start.gy(); ++j) {
                for (int i = 0; i < start.gx(); ++i) {
                    const float v = static_cast<float>(rng.uniform());
                    const float t = static_cast<float>(
                        rng.below(2) ? 1e-17 * rng.uniform() : v);
                    start.setVertex(i, j, k, v, t);
                }
            }
        }
        GridArrays want(start);
        for (int round = 0; round < 3; ++round) {
            referenceBlur(want);
        }
        for (const ExecPolicy pol : kPolicies) {
            BilateralGrid g = start;
            GridOpCounts ops;
            for (int round = 0; round < 3; ++round) {
                g.blur(&ops, pol);
            }
            EXPECT_EQ(ops.blur_vertex_visits, g.vertexCount() * 9);
            const GridArrays got(g);
            ASSERT_EQ(got.val.size(), want.val.size());
            for (size_t idx = 0; idx < want.val.size(); ++idx) {
                ASSERT_EQ(bits(got.val[idx]), bits(want.val[idx]))
                    << g.gx() << "x" << g.gy() << "x" << g.gz()
                    << " vertex " << idx << " threads " << pol.threads;
                ASSERT_EQ(bits(got.wgt[idx]), bits(want.wgt[idx]))
                    << g.gx() << "x" << g.gy() << "x" << g.gz()
                    << " vertex " << idx << " threads " << pol.threads;
            }
        }
    }
}

TEST(BssaBitIdentity, BilateralFilterGridMatchesPerVertexBlur)
{
    const ImageF img = mixedMagnitudes(53, 41, 7);
    // bilateralFilterGrid's splat, the per-vertex blur, its slice.
    BilateralGrid grid(img.width(), img.height(), 4.0, 8);
    grid.splat(img, img, nullptr);
    GridArrays arrays(grid);
    for (int i = 0; i < 4; ++i) {
        referenceBlur(arrays);
    }
    arrays.storeInto(grid);
    const ImageF want = grid.slice(img);
    for (const ExecPolicy pol : kPolicies) {
        expectBitIdentical(want,
                           bilateralFilterGrid(img, 4.0, 8, 4, nullptr, pol),
                           "bilateralFilterGrid");
    }
}

// --- A NaN guide pixel fails loudly ----------------------------------------

TEST(GridDeathTest, NanGuidePixelPanicsInSplatSliceAndCompute)
{
    ImageF clean(40, 30, 1, 0.5f);
    ImageF guide = clean;
    guide.at(7, 11) = std::numeric_limits<float>::quiet_NaN();

    BilateralGrid g(40, 30, 4.0, 8);
    EXPECT_DEATH(g.splat(guide, clean, nullptr),
                 "guide pixel \\(7, 11\\) is NaN");

    g.splat(clean, clean, nullptr);
    EXPECT_DEATH(g.slice(guide), "guide pixel \\(7, 11\\) is NaN");

    BssaConfig cfg;
    cfg.max_disparity = 8;
    cfg.solver_iterations = 2;
    EXPECT_DEATH(BssaStereo(cfg).compute(guide, clean),
                 "guide pixel \\(7, 11\\) is NaN");
}

} // namespace
} // namespace incam
