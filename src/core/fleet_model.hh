/**
 * @file
 * Analytical fleet-level cost model: N cameras, one shared uplink.
 *
 * The paper prices one camera against one link, but its deployment
 * stories — WISPCam swarms, multi-camera VR rigs — put many cameras
 * behind a single shared medium. This module extends the per-pipeline
 * evaluator with contention: each camera offers traffic at the rate
 * its in-camera compute sustains, the link's goodput is divided among
 * the offered loads under a share policy, and each camera's predicted
 * throughput is the min of its compute rate and its allocated link
 * rate.
 *
 * The allocation is *weighted max-min fair* (progressive water
 * filling): cameras demanding less than their weighted share keep
 * their demand, and the residual capacity is re-divided among the
 * still-backlogged cameras by weight — the steady state a
 * work-conserving weighted arbiter (SharedLink, runtime/uplink.hh)
 * converges to.
 * StrictPriority instead allocates in priority order, each tier
 * taking what it demands before the next tier sees any capacity.
 *
 * fleetReport() prices a fixed fleet; FleetOptimizer searches
 * per-camera configurations (reusing PipelineOptimizer's enumeration)
 * for the assignment that maximizes aggregate feasible FPS or
 * minimizes total energy under the shared budget.
 */

#ifndef INCAM_CORE_FLEET_MODEL_HH
#define INCAM_CORE_FLEET_MODEL_HH

#include <string>
#include <vector>

#include "core/optimizer.hh"
#include "core/pipeline.hh"

namespace incam {

/** How a shared link's goodput is divided among competing cameras. */
enum class SharePolicy
{
    /** Equal weights: plain max-min fair sharing. */
    Fair,
    /** Weighted max-min: shares proportional to camera weights. */
    Weighted,
    /** Higher weight = higher priority; strict precedence, ties share
     *  fairly within the tier. Lower tiers can starve. */
    StrictPriority,
};

const char *sharePolicyName(SharePolicy policy);

/** One camera of an analytical fleet. */
struct FleetCameraModel
{
    std::string name;
    /** Non-owning: must outlive every model call that uses it. */
    const Pipeline *pipeline = nullptr;
    PipelineConfig config;
    /** Fair: ignored. Weighted: share weight. StrictPriority: rank. */
    double weight = 1.0;
    /** Source emission cap in FPS; 0 means saturated (compute-bound). */
    double source_fps = 0.0;
};

/** Predicted steady-state behaviour of one camera under contention. */
struct FleetShare
{
    std::string name;
    /** Rate the camera can offer: min(compute FPS, source FPS). */
    double offered_fps = 0.0;
    /** Bytes per frame crossing this camera's cut. */
    DataSize cut_bytes;
    /** Load the camera would put on the link, bytes/s (offered x cut). */
    double demand_bps = 0.0;
    /** Link bytes/s the policy allocates to this camera. */
    double allocated_bps = 0.0;
    /** FPS the allocation sustains (infinite for a zero-byte cut). */
    double link_fps = 0.0;
    /** Predicted delivered FPS: min(offered, link share). */
    double fps = 0.0;
    /** Predicted J per source frame (duty-scaled EnergyReport total). */
    Energy jpf;
    /** True when the link share, not compute, limits this camera. */
    bool link_bound = false;
};

/** The fleet-level analogue of Throughput/EnergyReport. */
struct FleetModelReport
{
    std::vector<FleetShare> cameras;
    /** Sum of predicted per-camera FPS. */
    double aggregate_fps = 0.0;
    /** Sum of predicted per-camera J per source frame. */
    Energy total_jpf;
    /** Total offered load vs link goodput, bytes/s. */
    double offered_bps = 0.0;
    double capacity_bps = 0.0;
    /** Allocated / capacity (1.0 when the link saturates). */
    double utilization = 0.0;
};

/**
 * Predict per-camera goodput shares, FPS and J/frame for @p cameras
 * contending for @p link under @p policy.
 *
 * Throughput follows streaming semantics (every frame crosses the
 * cut, as in ThroughputReport); energy follows duty semantics
 * (upstream filters gate downstream frames, as in EnergyReport) —
 * matching the two measurement modes of the fleet runtime.
 */
FleetModelReport fleetReport(const std::vector<FleetCameraModel> &cameras,
                             const NetworkLink &link, SharePolicy policy);

/** Objective for the fleet-level configuration search. */
struct FleetOptimizerGoal
{
    enum class Kind
    {
        MaxAggregateFps, ///< maximize sum of delivered FPS
        MinTotalEnergy,  ///< minimize sum of J/frame
    };
    Kind kind = Kind::MaxAggregateFps;
    /** FPS floor every camera must satisfy (0 = none). */
    double per_camera_min_fps = 0.0;
};

/** One fleet configuration assignment with its evaluated model. */
struct FleetChoice
{
    /** Chosen configuration per camera, fleet order. */
    std::vector<PipelineConfig> configs;
    FleetModelReport report;
    double objective = 0.0;
    bool feasible = true;
};

/**
 * Searches per-camera configurations under a shared link budget.
 *
 * Each camera's candidate set is PipelineOptimizer::enumerate over its
 * own pipeline (the single-camera spaces are tiny); the cross-camera
 * assignment is then refined by deterministic coordinate descent:
 * sweep the cameras in order, re-picking each camera's configuration
 * to best the fleet objective with the others held fixed, until a
 * full sweep changes nothing. Greedy in the product space, exact in
 * each coordinate — and every tie falls back to the per-camera
 * optimizer's total order, so results are platform-stable.
 */
class FleetOptimizer
{
  public:
    FleetOptimizer(std::vector<FleetCameraModel> cameras,
                   NetworkLink link, SharePolicy policy);

    /** The best assignment found; check FleetChoice::feasible when
     *  the goal demands a per-camera throughput floor. */
    FleetChoice best(const FleetOptimizerGoal &goal) const;

  private:
    std::vector<FleetCameraModel> cams;
    NetworkLink net;
    SharePolicy policy;
};

} // namespace incam

#endif // INCAM_CORE_FLEET_MODEL_HH
