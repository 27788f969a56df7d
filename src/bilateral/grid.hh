/**
 * @file
 * The bilateral grid (Chen, Paris & Durand 2007; Barron et al. 2015).
 *
 * A bilateral grid lifts a 2-D image into a 3-D lattice whose axes are
 * (x / s_spatial, y / s_spatial, intensity / s_range). Pixels that are
 * close in space but different in intensity land in distant grid cells,
 * so *local* (cheap, separable) filtering inside the grid equals an
 * *edge-aware* (expensive, global) filter in pixel space — the property
 * Fig. 6 of the paper illustrates and that makes bilateral-space stereo
 * (BSSA) fast: disparity smoothing happens on the coarse lattice instead
 * of per pixel.
 *
 * The grid stores homogeneous (value*weight, weight) pairs; slicing
 * divides the interpolated value by the interpolated weight. Splat and
 * slice use trilinear kernels, blur is the separable [1 2 1]/4 stencil
 * per axis. Every method counts its arithmetic so hardware cost models
 * can price the same computation on CPU / GPU / FPGA.
 */

#ifndef INCAM_BILATERAL_GRID_HH
#define INCAM_BILATERAL_GRID_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "exec/exec_policy.hh"
#include "image/image.hh"

namespace incam {

/** Arithmetic-work counters for the grid kernels. */
struct GridOpCounts
{
    uint64_t splat_ops = 0;
    uint64_t blur_vertex_visits = 0; ///< vertex-stencil applications
    uint64_t slice_ops = 0;

    void
    merge(const GridOpCounts &o)
    {
        splat_ops += o.splat_ops;
        blur_vertex_visits += o.blur_vertex_visits;
        slice_ops += o.slice_ops;
    }
};

/** A 3-D homogeneous bilateral grid over a single-channel image. */
class BilateralGrid
{
  public:
    /**
     * Size the grid for a w x h image: spatial cells of
     * @p cell_spatial pixels and @p range_bins intensity bins over
     * [0, 1].
     */
    BilateralGrid(int image_w, int image_h, double cell_spatial,
                  int range_bins);

    int gx() const { return nx; }
    int gy() const { return ny; }
    int gz() const { return nz; }
    size_t
    vertexCount() const
    {
        return static_cast<size_t>(nx) * ny * nz;
    }

    double cellSpatial() const { return cell; }
    int rangeBins() const { return nz; }

    /** In-memory size: two floats per vertex. */
    DataSize
    byteSize() const
    {
        return DataSize::bytes(
            static_cast<double>(vertexCount() * 2 * sizeof(float)));
    }

    /**
     * Accumulate @p value into the grid guided by @p guide intensities,
     * weighting each pixel by @p confidence (pass nullptr for weight 1).
     * Trilinear splatting: each pixel feeds its 8 surrounding vertices.
     * A NaN guide pixel panics, naming the pixel.
     *
     * Parallelized over fixed row bands with per-band grid accumulators
     * merged in band order, so results are bit-identical for every
     * thread count at a given grain.
     */
    void splat(const ImageF &guide, const ImageF &value,
               const ImageF *confidence, GridOpCounts *ops = nullptr,
               const ExecPolicy &pol = ExecPolicy::serial());

    /**
     * One separable [1 2 1]/4 blur pass along all three axes; an end
     * vertex stands in for its missing neighbour.
     */
    void blur(GridOpCounts *ops = nullptr,
              const ExecPolicy &pol = ExecPolicy::serial());

    /**
     * Read the grid back at every pixel of @p guide (trilinear), dividing
     * by the interpolated weight. Zero-weight regions produce
     * @p fallback. A NaN guide pixel panics, naming the pixel.
     */
    ImageF slice(const ImageF &guide, float fallback = 0.0f,
                 GridOpCounts *ops = nullptr,
                 const ExecPolicy &pol = ExecPolicy::serial()) const;

    /**
     * Blend this grid toward @p data: v = (v + lambda * data_v) /
     * normalized — the Jacobi data-fidelity step of the BSSA solver.
     */
    void blendData(const BilateralGrid &data, double lambda);

    /** Raw vertex accessors (tests & the FPGA datapath validation). */
    float vertexValue(int i, int j, int k) const;
    float vertexWeight(int i, int j, int k) const;
    void setVertex(int i, int j, int k, float value_times_weight,
                   float weight);

  private:
    size_t
    index(int i, int j, int k) const
    {
        return (static_cast<size_t>(k) * ny + j) * nx + i;
    }

    int nx;
    int ny;
    int nz;
    double cell;
    std::vector<float> val; ///< value * weight
    std::vector<float> wgt; ///< weight
};

} // namespace incam

#endif // INCAM_BILATERAL_GRID_HH
