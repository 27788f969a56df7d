#include "bilateral/grid.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "exec/parallel.hh"

namespace incam {

namespace {

/**
 * Row bands for the splat accumulators. The band structure must depend
 * only on the image and the grain — never on the thread count — so the
 * band-order merge gives bit-identical results at any parallelism. The
 * cap bounds the per-band partial-grid memory.
 */
constexpr int kMaxSplatBands = 8;

int
splatBandRows(int height, const ExecPolicy &pol)
{
    const int cap_rows = (height + kMaxSplatBands - 1) / kMaxSplatBands;
    return std::max({1, pol.grain, cap_rows});
}

/** Per-column interpolation terms, hoisted out of the row loops. */
struct AxisLut
{
    std::vector<int> lo;
    std::vector<float> t;

    AxisLut(int n, float inv_cell, int grid_n)
    {
        lo.resize(n);
        t.resize(n);
        for (int i = 0; i < n; ++i) {
            const float f = static_cast<float>(i) * inv_cell;
            const int i0 = std::min(static_cast<int>(f), grid_n - 2);
            lo[i] = i0;
            t[i] = f - static_cast<float>(i0);
        }
    }
};

/**
 * Trilinear sampling geometry shared by splat and slice — one place
 * computes the flat vertex offsets and the 8 per-pixel weights, so the
 * two kernels can never sample different vertices or weights.
 */
struct TrilinearGeom
{
    AxisLut xlut;
    AxisLut ylut;
    float bins;
    int nz;
    size_t sy;
    size_t sz;
    size_t off[8]; ///< flat offsets of the cell's 8 vertices

    TrilinearGeom(int w, int h, double cell, int gx, int gy, int gz)
        : xlut(w, static_cast<float>(1.0 / cell), gx),
          ylut(h, static_cast<float>(1.0 / cell), gy),
          bins(static_cast<float>(gz - 1)), nz(gz),
          sy(static_cast<size_t>(gx)),
          sz(static_cast<size_t>(gx) * gy),
          off{0, 1, sy, sy + 1, sz, sz + 1, sz + sy, sz + sy + 1}
    {
    }

    /**
     * Weights and base vertex index for pixel (x, y) with guide
     * intensity @p g. Fills wv[8] matching off[8]. A NaN guide has no
     * intensity bin, so it panics rather than index off the grid.
     */
    size_t
    vertexWeights(int x, int y, float g, float wv[8]) const
    {
        if (std::isnan(g)) {
            incam_panic("guide pixel (", x, ", ", y, ") is NaN");
        }
        const float fz = std::clamp(g, 0.0f, 1.0f) * bins;
        const int z0 = std::min(static_cast<int>(fz), nz - 2);
        const float tz = fz - static_cast<float>(z0);
        const float tx = xlut.t[x];
        const float ty = ylut.t[y];
        const float wx0 = 1.0f - tx;
        const float wy0 = 1.0f - ty;
        const float wz0 = 1.0f - tz;

        const float wy0z0 = wy0 * wz0;
        const float wy1z0 = ty * wz0;
        const float wy0z1 = wy0 * tz;
        const float wy1z1 = ty * tz;
        wv[0] = wx0 * wy0z0;
        wv[1] = tx * wy0z0;
        wv[2] = wx0 * wy1z0;
        wv[3] = tx * wy1z0;
        wv[4] = wx0 * wy0z1;
        wv[5] = tx * wy0z1;
        wv[6] = wx0 * wy1z1;
        wv[7] = tx * wy1z1;
        return static_cast<size_t>(z0) * sz +
               static_cast<size_t>(ylut.lo[y]) * sy + xlut.lo[x];
    }
};

/**
 * Vertices per block of the blur stencil. A fixed count lets the
 * compiler vectorize each block with no epilogue of its own; a row's
 * last n % kBlurBlock vertices run one at a time.
 */
constexpr int kBlurBlock = 8;

/**
 * The blur stencil, [1 2 1] / 4, vertex by vertex across three rows of
 * @p n vertices. A y or z pass at a clamped end passes the row itself as
 * @p lo or @p hi; the x pass passes one row at three offsets. @p out
 * never overlaps the inputs.
 */
void
stencilRows(const float *__restrict lo, const float *__restrict mid,
            const float *__restrict hi, float *__restrict out, int n)
{
    auto stencil = [&](int i) {
        out[i] = 0.25f * (lo[i] + 2.0f * mid[i] + hi[i]);
    };
    int i = 0;
    for (; i + kBlurBlock <= n; i += kBlurBlock) {
        for (int l = 0; l < kBlurBlock; ++l) {
            stencil(i + l);
        }
    }
    for (; i < n; ++i) {
        stencil(i);
    }
}

/** One output row of the x pass; its two clamped ends sit outside the
 *  loop. */
void
stencilAlongRow(const float *row, float *out, int n)
{
    out[0] = 0.25f * (row[0] + 2.0f * row[0] + row[1]);
    stencilRows(row, row + 1, row + 2, out + 1, n - 2);
    out[n - 1] = 0.25f * (row[n - 2] + 2.0f * row[n - 1] + row[n - 1]);
}

/**
 * A y or z pass over @p count rows of @p n vertices: output row c is
 * the stencil of input rows c - 1, c and c + 1, the row itself standing
 * in at either end. Rows sit @p src_stride and @p dst_stride floats
 * apart.
 */
void
stencilAcrossRows(const float *src, size_t src_stride, float *dst,
                  size_t dst_stride, int count, int n)
{
    for (int c = 0; c < count; ++c) {
        const float *mid = src + c * src_stride;
        const float *lo = c > 0 ? mid - src_stride : mid;
        const float *hi = c < count - 1 ? mid + src_stride : mid;
        stencilRows(lo, mid, hi, dst + c * dst_stride, n);
    }
}

} // namespace

BilateralGrid::BilateralGrid(int image_w, int image_h, double cell_spatial,
                             int range_bins)
    : cell(cell_spatial)
{
    incam_assert(image_w > 0 && image_h > 0, "bad image size");
    incam_assert(cell_spatial >= 1.0, "spatial cell must be >= 1 px");
    incam_assert(range_bins >= 2, "need >= 2 range bins");
    // +1 so the last pixel/intensity has an upper interpolation vertex.
    nx = static_cast<int>(std::ceil(image_w / cell_spatial)) + 1;
    ny = static_cast<int>(std::ceil(image_h / cell_spatial)) + 1;
    nz = range_bins + 1;
    val.assign(vertexCount(), 0.0f);
    wgt.assign(vertexCount(), 0.0f);
}

void
BilateralGrid::splat(const ImageF &guide, const ImageF &value,
                     const ImageF *confidence, GridOpCounts *ops,
                     const ExecPolicy &pol)
{
    incam_assert(guide.channels() == 1 && value.channels() == 1,
                 "splat expects single-channel images");
    incam_assert(guide.sameShape(value), "guide/value shape mismatch");
    if (confidence) {
        incam_assert(guide.sameShape(*confidence),
                     "confidence shape mismatch");
    }

    const int w = guide.width();
    const int h = guide.height();
    const TrilinearGeom geom(w, h, cell, nx, ny, nz);

    const size_t verts = vertexCount();
    ExecPolicy band_pol = pol;
    band_pol.grain = splatBandRows(h, pol);
    const uint64_t bands = parallel_chunk_count(0, h, band_pol);

    // One band's pixels accumulated into a zeroed partial grid.
    auto splatBand = [&](float *bv, float *bw, int64_t y0, int64_t y1) {
        for (int64_t row = y0; row < y1; ++row) {
            const int y = static_cast<int>(row);
            for (int x = 0; x < w; ++x) {
                float wv[8];
                const size_t base =
                    geom.vertexWeights(x, y, guide.at(x, y), wv);
                const float c = confidence ? confidence->at(x, y) : 1.0f;
                const float v = value.at(x, y) * c;
                for (int k = 0; k < 8; ++k) {
                    bv[base + geom.off[k]] += v * wv[k];
                    bw[base + geom.off[k]] += c * wv[k];
                }
            }
        }
    };
    auto mergeBand = [&](const float *bv, const float *bw) {
        for (size_t i = 0; i < verts; ++i) {
            val[i] += bv[i];
            wgt[i] += bw[i];
        }
    };

    if (pol.resolveThreads() <= 1 || bands <= 1) {
        // Serial: one reusable scratch pair, bands merged as they
        // finish — the same band-order floating-point grouping as the
        // parallel path at a fraction of its transient memory. Chunks
        // run inline in order here, so the in-place merge is safe, and
        // routing through parallel_for_chunks keeps both paths on the
        // exact same chunk geometry.
        std::vector<float> scratch_val;
        std::vector<float> scratch_wgt;
        parallel_for_chunks(
            0, h, band_pol, [&](uint64_t, int64_t y0, int64_t y1) {
                scratch_val.assign(verts, 0.0f);
                scratch_wgt.assign(verts, 0.0f);
                splatBand(scratch_val.data(), scratch_wgt.data(), y0, y1);
                mergeBand(scratch_val.data(), scratch_wgt.data());
            });
    } else {
        // Parallel: per-band partial grids so bands never race on
        // shared vertices, merged in band order below.
        std::vector<std::vector<float>> band_val(bands);
        std::vector<std::vector<float>> band_wgt(bands);
        parallel_for_chunks(
            0, h, band_pol, [&](uint64_t band, int64_t y0, int64_t y1) {
                band_val[band].assign(verts, 0.0f);
                band_wgt[band].assign(verts, 0.0f);
                splatBand(band_val[band].data(), band_wgt[band].data(),
                          y0, y1);
            });
        for (uint64_t band = 0; band < bands; ++band) {
            mergeBand(band_val[band].data(), band_wgt[band].data());
        }
    }

    if (ops) {
        // 8 vertices x 2 channels x (1 mul + 1 add) + weight products.
        ops->splat_ops += static_cast<uint64_t>(guide.pixelCount()) * 40;
    }
}

void
BilateralGrid::blur(GridOpCounts *ops, const ExecPolicy &pol)
{
    // Separable [1 2 1] / 4 along x, then y, then z, with clamped ends:
    // an end vertex stands in for its missing neighbour. A plane's x
    // pass goes into a plane-sized buffer and its y pass back; then each
    // line of rows along z goes through a buffer of its own. Buffers are
    // per chunk and every output reads only its pass's inputs, so any
    // partitioning yields bit-identical output.
    const size_t row = static_cast<size_t>(nx);
    const size_t plane = row * ny;
    float *const arrays[] = {val.data(), wgt.data()};
    parallel_for(0, nz, pol, [&](int64_t k0, int64_t k1) {
        std::vector<float> xs(plane);
        for (float *a : arrays) {
            for (int64_t k = k0; k < k1; ++k) {
                float *p = a + k * plane;
                for (int j = 0; j < ny; ++j) {
                    stencilAlongRow(p + j * row, xs.data() + j * row, nx);
                }
                stencilAcrossRows(xs.data(), row, p, row, ny, nx);
            }
        }
    });
    parallel_for(0, ny, pol, [&](int64_t j0, int64_t j1) {
        std::vector<float> zs(row * nz);
        for (float *a : arrays) {
            for (int64_t j = j0; j < j1; ++j) {
                float *line = a + j * row;
                stencilAcrossRows(line, plane, zs.data(), row, nz, nx);
                for (int k = 0; k < nz; ++k) {
                    std::copy_n(zs.data() + k * row, nx, line + k * plane);
                }
            }
        }
    });
    if (ops) {
        ops->blur_vertex_visits += vertexCount() * 3;
    }
}

ImageF
BilateralGrid::slice(const ImageF &guide, float fallback, GridOpCounts *ops,
                     const ExecPolicy &pol) const
{
    incam_assert(guide.channels() == 1, "slice expects a grayscale guide");
    const int w = guide.width();
    const int h = guide.height();
    ImageF out(w, h, 1);
    const TrilinearGeom geom(w, h, cell, nx, ny, nz);
    const float *vals = val.data();
    const float *wgts = wgt.data();

    // Pixels are independent reads: parallel over rows, bit-identical
    // at any partitioning.
    parallel_for(0, h, pol, [&](int64_t y0, int64_t y1) {
        for (int64_t row = y0; row < y1; ++row) {
            const int y = static_cast<int>(row);
            for (int x = 0; x < w; ++x) {
                float wv[8];
                const size_t base =
                    geom.vertexWeights(x, y, guide.at(x, y), wv);
                float acc_v = 0.0f;
                float acc_w = 0.0f;
                for (int k = 0; k < 8; ++k) {
                    acc_v += wv[k] * vals[base + geom.off[k]];
                    acc_w += wv[k] * wgts[base + geom.off[k]];
                }
                out.at(x, y) = acc_w > 1e-9f ? acc_v / acc_w : fallback;
            }
        }
    });
    if (ops) {
        ops->slice_ops += static_cast<uint64_t>(guide.pixelCount()) * 35;
    }
    return out;
}

void
BilateralGrid::blendData(const BilateralGrid &data, double lambda)
{
    incam_assert(nx == data.nx && ny == data.ny && nz == data.nz,
                 "grid shape mismatch in blendData");
    incam_assert(lambda >= 0.0, "negative data weight");
    const float l = static_cast<float>(lambda);
    for (size_t i = 0; i < val.size(); ++i) {
        val[i] += l * data.val[i];
        wgt[i] += l * data.wgt[i];
    }
}

float
BilateralGrid::vertexValue(int i, int j, int k) const
{
    incam_assert(i >= 0 && i < nx && j >= 0 && j < ny && k >= 0 && k < nz,
                 "vertex (", i, ",", j, ",", k, ") out of grid");
    return val[index(i, j, k)];
}

float
BilateralGrid::vertexWeight(int i, int j, int k) const
{
    incam_assert(i >= 0 && i < nx && j >= 0 && j < ny && k >= 0 && k < nz,
                 "vertex (", i, ",", j, ",", k, ") out of grid");
    return wgt[index(i, j, k)];
}

void
BilateralGrid::setVertex(int i, int j, int k, float value_times_weight,
                         float weight)
{
    incam_assert(i >= 0 && i < nx && j >= 0 && j < ny && k >= 0 && k < nz,
                 "vertex (", i, ",", j, ",", k, ") out of grid");
    val[index(i, j, k)] = value_times_weight;
    wgt[index(i, j, k)] = weight;
}

} // namespace incam
