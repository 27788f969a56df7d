/**
 * @file
 * CameraFleet — N streaming pipelines, one arbitrated uplink.
 *
 * The runtime counterpart of core/fleet_model.hh: a fleet owns one
 * NetworkLink budget (or a NetworkTrace of them) and runs every
 * camera's StreamingPipeline against it, each uplink stage acquiring
 * its bytes through one SharedLink the cameras share instead of a
 * link of its own. Cameras are heterogeneous: FA swarms and VR rigs,
 * different configs, cuts, frame sizes, frame counts and weights,
 * side by side under one resource budget.
 *
 * Every shape arbitrates through the one link core, sim::SimLink. The
 * wall-clock shape (ThreadPerCamera) reaches it through a SharedLink,
 * its mutex-guarded adapter; the discrete-event shape drives it
 * directly on model time (run(RunOptions) lists the shapes).
 *
 * A camera that finishes (or fails) simply stops competing: the link
 * is work-conserving, so its goodput share flows to the surviving
 * cameras immediately — siblings never stall.
 */

#ifndef INCAM_FLEET_FLEET_HH
#define INCAM_FLEET_FLEET_HH

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/fleet_model.hh"
#include "core/pipeline.hh"
#include "runtime/runtime.hh"

namespace incam {

class NetworkTrace;  // trace/trace.hh
class FaultInjector; // fault/fault.hh

/** One camera of a fleet: a pipeline configuration plus traffic. */
struct FleetCamera
{
    FleetCamera(std::string camera_name, Pipeline camera_pipeline,
                PipelineConfig camera_config)
        : name(std::move(camera_name)),
          pipeline(std::move(camera_pipeline)),
          config(std::move(camera_config))
    {
    }

    std::string name;
    Pipeline pipeline;      ///< copied: the fleet owns its cameras
    PipelineConfig config;
    /** Share weight (Weighted) or priority rank (StrictPriority). */
    double weight = 1.0;
    /** Frames this camera's source emits before closing. */
    int64_t frames = 240;
    /** Source emission cap in model FPS; 0 saturates the pipeline. */
    double source_fps = 0.0;
    /** Optional hook to attach executors / frame fill to the built
     *  StreamingPipeline before the run starts. */
    std::function<void(StreamingPipeline &)> customize;
};

/** Fleet-wide knobs; per-camera knobs live on FleetCamera. */
struct FleetOptions
{
    SharePolicy policy = SharePolicy::Fair;
    GatingMode gating = GatingMode::Model;
    double time_scale = 1.0;
    bool pace_stages = true;
    bool pace_link = true;
    /** Read by no fleet shape: every fleet camera runs its chain
     *  without queues. The field stays only because
     *  perfbench/src/fleets.cc sets it. */
    int queue_capacity = 8;
    double stage_burst_frames = 2.0;
    /**
     * Time-varying link conditions: the link core takes each trace
     * segment's capacity and per-bit price as the schedule advances.
     * The trace must outlive the run. Null = stationary link (the
     * fleet's NetworkLink as constructed).
     */
    const NetworkTrace *network_trace = nullptr;
    /** Frame clock forwarded to every camera's RuntimeOptions. */
    double trace_fps = 0.0;
    /**
     * Shared fault oracle: every camera is subjected to this plan,
     * identifying as its fleet index (== link endpoint), so
     * per-camera crash windows key on that index. The injector must
     * outlive the run. Null = fault-free.
     */
    const FaultInjector *faults = nullptr;
    /** Uplink retry semantics forwarded to every camera. */
    DeliveryPolicy delivery;
    /** Default compute-fault policy forwarded to every camera. */
    StagePolicy stage_policy;
    /**
     * Epoch-table capacity forwarded to every camera's RuntimeOptions.
     * The per-camera epoch table is reserved up front (it must never
     * reallocate under concurrent readers), so at 100k cameras this is
     * the dominant per-camera allocation — discrete-event sweeps that
     * never reconfigure set it low.
     */
    int epoch_capacity = 256;
};

/** Runs heterogeneous pipelines against one arbitrated uplink. */
class CameraFleet
{
  public:
    CameraFleet(NetworkLink link, FleetOptions options = {});

    /** Add a camera; returns its index (== its link endpoint). */
    int addCamera(FleetCamera camera);

    int cameraCount() const { return static_cast<int>(cams.size()); }
    const NetworkLink &link() const { return net; }

    /**
     * The analytical mirror of the current fleet, for
     * fleetReport(modelCameras(), link(), options.policy) style
     * measured-vs-model comparisons. Pipeline pointers reference the
     * fleet's own cameras: valid while the fleet lives.
     */
    std::vector<FleetCameraModel> modelCameras() const;

    /**
     * THE run entry point: execute every camera's stream to completion
     * under @p options' execution shape and report. Single use.
     * Shapes:
     *
     *  - ThreadPerCamera: one pool thread per camera runs the chain
     *    inline (the historical default; <= ThreadPool::kMaxWorkers
     *    cameras).
     *  - DiscreteEvent: every camera is an event source on model time
     *    (sim/SimEngine); one core runs 100k cameras. Requires
     *    time_scale == 1.0 (model time needs no stretching) and no
     *    RunOptions::clock (the engine owns one VirtualClock per
     *    camera). A customize hook must not attach a SharedLink: the
     *    engine owns delivery.
     *  - Inline and ThreadedStages panic: they are solo shapes, and a
     *    fleet's serial shape IS ThreadPerCamera.
     *
     * Wall-clock shapes must not be called from inside a thread-pool
     * worker. Rethrows the first camera error after every stream has
     * wound down (surviving cameras complete normally).
     */
    FleetRunReport run(const RunOptions &options);

  private:
    FleetRunReport runThreadPerCamera(const RunOptions &options);
    FleetRunReport runDiscreteEvent(const RunOptions &options);

    NetworkLink net;
    FleetOptions opts;
    std::deque<FleetCamera> cams; ///< deque: stable Pipeline addresses
    bool consumed = false;
};

} // namespace incam

#endif // INCAM_FLEET_FLEET_HH
