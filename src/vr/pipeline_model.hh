/**
 * @file
 * Analytic cost model of the full-scale VR rig — Figs. 9 & 10, Table I.
 *
 * Mirrors the paper's methodology (Section IV-C): every block's
 * communication cost is the size of its output divided by the uplink
 * bandwidth; its computation cost is its work divided by the throughput
 * of the platform executing it; because the pipeline is pipelined
 * across frames, a configuration's total throughput is the minimum of
 * its per-block compute FPS and the communication FPS at the offload
 * cut. A configuration is real-time when *both* compute and
 * communication clear the 30 FPS bar.
 *
 * Platform assignments, following the paper's system:
 *  - B1/B2 always run as streaming fabric blocks at each camera node;
 *  - B3 runs on the selected implementation: the mobile CPU (one ARM
 *    A9 handles all pairs — the paper's software baseline), one Quadro
 *    K2200, or the multi-FPGA system (one Zynq per camera pair, each
 *    hosting the compute units Table I reports);
 *  - B4 runs on the same implementation class as B3 (the paper's
 *    B4C/B4G/B4F configurations).
 */

#ifndef INCAM_VR_PIPELINE_MODEL_HH
#define INCAM_VR_PIPELINE_MODEL_HH

#include <string>
#include <vector>

#include "hw/device.hh"
#include "hw/fpga.hh"
#include "vr/geometry.hh"

namespace incam {

/** Implementation choice for the accelerated blocks (B3/B4). */
enum class VrImpl
{
    Cpu,
    Gpu,
    Fpga,
};

/** One row of the Fig. 10 bar chart. */
struct VrConfigRow
{
    std::string name;    ///< e.g. "S+B1+B2+B3(F)+B4(F)"
    int last_block = 0;  ///< 0 = sensor only .. 4 = full pipeline
    VrImpl impl = VrImpl::Cpu;
    double compute_fps = 0.0; ///< min over in-camera blocks (inf if none)
    double comm_fps = 0.0;    ///< uplink bandwidth / offloaded bytes
    double total_fps = 0.0;   ///< min(compute, comm)
    bool realtime = false;    ///< total >= target
};

/** The Fig. 9 / Fig. 10 cost model. */
class VrPipelineModel
{
  public:
    /** Streaming-fabric throughputs for the ISP-style blocks. */
    static constexpr double b1_px_per_cycle = 8.0;
    static constexpr double b2_px_per_cycle = 6.0;
    static constexpr double b4_px_per_cycle = 8.0;

    explicit VrPipelineModel(
        VrGeometry geometry = defaultVrGeometry(),
        Bandwidth uplink = Bandwidth::gigabitsPerSec(25.0),
        double target_fps = 30.0);

    const VrGeometry &geometry() const { return geom; }
    Bandwidth uplink() const { return link; }
    void setUplink(Bandwidth b) { link = b; }

    /** Fig. 9: bytes leaving each stage. */
    DataSize outputBytes(VrBlock stage) const
    {
        return geom.outputBytes(stage);
    }

    /**
     * Fig. 9: CPU-implementation compute share of each block. The split
     * a traced perfbench vr_rig run measures is in docs/performance.md.
     */
    double cpuShare(VrBlock stage) const;

    /** Communication FPS when offloading right after @p cut. */
    double commFps(VrBlock cut) const;

    /** Compute FPS of one block under an implementation choice. */
    double blockComputeFps(VrBlock stage, VrImpl impl) const;

    /** Compute FPS of a pipeline prefix (min over its blocks). */
    double pipelineComputeFps(int last_block, VrImpl impl) const;

    /** Evaluate one configuration. */
    VrConfigRow evaluate(int last_block, VrImpl impl) const;

    /** All nine Fig. 10 configurations, in the paper's order. */
    std::vector<VrConfigRow> figure10() const;

    /** Table I: the 2-camera evaluation design on the Zynq-7020. */
    FpgaUsage evaluationUsage() const;

    /** Table I: the 16-camera target design on the UltraScale+ part. */
    FpgaUsage targetUsage() const;

    /** Compute units instantiated per camera-pair Zynq. */
    int evalComputeUnits() const;

    /** B3 throughput of one FPGA board working on its pair. */
    double fpgaDepthFps() const;

    /**
     * Smallest uplink that makes raw-sensor offload hit the target —
     * the Section IV-C observation that faster networks erode the
     * incentive for in-camera processing.
     */
    Bandwidth sensorOffloadBandwidth() const;

  private:
    VrGeometry geom;
    Bandwidth link;
    double target;
    ProcessorModel cpu_model;
    ProcessorModel gpu_model;
};

} // namespace incam

#endif // INCAM_VR_PIPELINE_MODEL_HH
