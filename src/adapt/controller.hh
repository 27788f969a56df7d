/**
 * @file
 * Online cut-point control — re-optimizing the pipeline while it runs.
 *
 * The paper's central result is that the energy/throughput-optimal
 * compute-communicate cut is a function of link conditions; under the
 * time-varying conditions of trace/, no single static configuration
 * stays optimal. AdaptiveController closes the loop: on a fixed
 * model-time cadence it folds condition samples (trace ground truth
 * and/or live telemetry) through a ConditionEstimator, re-runs the
 * exhaustive PipelineOptimizer against the *estimated* link and
 * content, and — when the best configuration beats the live one by
 * more than a hysteresis margin, and a minimum dwell has elapsed —
 * switches the running StreamingPipeline via its lossless epoch
 * reconfiguration. FleetAdaptiveController does the same for a
 * CameraFleet through FleetOptimizer, re-assigning every camera's
 * configuration under the shared-link budget.
 *
 * The controller is clocked by the pipeline's *source tick* and the
 * frame clock (RuntimeOptions::trace_fps): decisions happen at
 * deterministic frame boundaries, so with trace-sourced estimates the
 * entire decision sequence — and therefore every frame's epoch — is
 * bit-reproducible across hosts and thread counts. That property is
 * what tests/test_adapt.cc pins down and what makes the
 * adaptive-vs-oracle benchmark gates stable.
 *
 * Hysteresis and dwell exist because estimates lag reality (the EWMA
 * horizon) and switching has modeling cost: without them a controller
 * sitting near a cost crossover flaps between cuts every period on
 * estimation noise. Tuning guidance lives in docs/adaptive.md.
 */

#ifndef INCAM_ADAPT_CONTROLLER_HH
#define INCAM_ADAPT_CONTROLLER_HH

#include <string>
#include <vector>

#include "adapt/estimator.hh"
#include "core/fleet_model.hh"
#include "core/optimizer.hh"
#include "runtime/runtime.hh"
#include "trace/trace.hh"

namespace incam {

struct FaultPlan; // fault/fault.hh

/**
 * @p pipe with its filter blocks' pass fractions replaced, in filter
 * order: the first filter takes @p motion_pass, the second
 * @p face_pass (negative = keep the declared value). How estimated or
 * scheduled content conditions are folded into a planning pipeline —
 * used by the controller before each re-optimization and by the
 * adaptive benchmark's per-segment oracle.
 */
Pipeline withPassFractions(const Pipeline &pipe, double motion_pass,
                           double face_pass);

/** Knobs of the adaptive loop (shared by solo and fleet control). */
struct ControllerOptions
{
    OptimizerGoal goal;

    /** Model seconds between re-optimizations. */
    double decision_period = 2.0;

    /** Model seconds between condition samples (finer than decisions
     *  so the EWMA integrates several observations per decision). */
    double sample_period = 0.5;

    /** ConditionEstimator memory; see its horizon contract. */
    Time ewma_horizon = Time::seconds(2.0);

    /**
     * Minimum relative objective improvement (vs the live config,
     * both priced under the *estimated* conditions) a candidate must
     * offer to trigger a switch. 0.05 = 5%. A config that became
     * infeasible (throughput floor) is always switched away from.
     */
    double hysteresis = 0.05;

    /** Decisions that must pass between consecutive switches. */
    int min_dwell = 2;

    /**
     * The frame clock: tick i sits at i / trace_fps model seconds.
     * Must match RuntimeOptions::trace_fps of the attached pipeline.
     */
    double trace_fps = 1.0;

    /**
     * Degrade-to-local: believed uplink loss at or above this enters
     * local-delivery mode — the controller switches to the best
     * zero-offload cut and reconfigures with deliver_local, so frames
     * complete in-camera instead of dying on a dead link. Values > 1
     * (the default) disable the state machine, since a loss fraction
     * never exceeds 1. An emergency transition: hysteresis and dwell
     * do not apply.
     */
    double degrade_loss_threshold = 2.0;

    /**
     * Believed loss at or below this, while degraded, restores remote
     * delivery: the network estimate is cold-started (the dead link's
     * beliefs are discarded — see ConditionEstimator::resetNetwork)
     * and the optimizer re-plans immediately. Must be strictly below
     * degrade_loss_threshold when the machine is enabled.
     */
    double restore_loss_threshold = 0.2;
};

/** One entry of the controller's decision log. */
struct AdaptiveDecision
{
    double t = 0.0;          ///< model time of the decision
    std::string chosen;      ///< best config under the estimates
    PipelineConfig config;   ///< the chosen configuration itself
    double objective = 0.0;  ///< its objective (lower is better)
    double live_objective = 0.0; ///< the live config's objective
    bool switched = false;   ///< did the pipeline reconfigure
};

/** Closed-loop cut-point control of one StreamingPipeline. */
class AdaptiveController
{
  public:
    /**
     * @p pipeline / @p base_link are the planning model: the
     * controller copies the pipeline and substitutes estimated
     * conditions into the link (and the filter pass fractions) before
     * each re-optimization.
     */
    AdaptiveController(const Pipeline &pipeline, NetworkLink base_link,
                       ControllerOptions options);

    /** Sample network conditions from trace ground truth. */
    void useNetworkTrace(const NetworkTrace *trace);

    /** Sample content conditions from a content schedule. */
    void useContentTrace(const ContentTrace *trace);

    /**
     * Sample measured conditions from a live Telemetry probe
     * (@p time_scale must match the probed run). Measured fields
     * override trace-sourced ones in windows where traffic flowed.
     */
    void useTelemetry(const Telemetry *probe, double time_scale);

    /**
     * Sample ground-truth loss from a fault plan (deterministic —
     * what the reproducible fault benchmarks use). Measured loss from
     * a telemetry probe overrides it in windows with tx attempts.
     * The plan must outlive the controller's run.
     */
    void useFaultPlan(const FaultPlan *plan);

    /**
     * Install this controller as @p sp's source tick and adopt its
     * initial configuration as the live one. The pipeline must have a
     * frame clock matching ControllerOptions::trace_fps. One
     * controller drives one pipeline; both must outlive the run.
     */
    void attach(StreamingPipeline &sp);

    /**
     * Clock decisions from an external trace clock instead of the
     * frame clock — for *paced* runs, whose source emission rate
     * varies with the conditions (a backlogged uplink stalls the
     * source, so frame ids stop tracking trace time). Typically
     * SharedLink::traceTime. Trades the frame clock's bit-exact
     * reproducibility for wall-accurate decision timing.
     */
    void useTraceClock(std::function<double()> now);

    /**
     * Record decision/degrade/heal instants into @p config's trace
     * recorder, attributed to camera @p camera. Decision timestamps
     * are model time (the controller's clock), so they line up with
     * frame-time traces and are deterministic wherever the decision
     * sequence is.
     */
    void setObs(const obs::ObsConfig &config, int camera = 0);

    /**
     * The clock body: advance sampling/decisions to frame @p id's
     * model time. attach() wires it to the source; tests may call it
     * directly to replay a decision sequence without a runtime.
     */
    void onFrame(int64_t id);

    const std::vector<AdaptiveDecision> &decisions() const
    {
        return log;
    }

    /** Switches actually applied (== pipeline reconfigurations). */
    int64_t switches() const { return n_switches; }

    /** The configuration the controller believes is live. */
    const PipelineConfig &liveConfig() const { return live; }

    /** True while delivering locally (degrade-to-local engaged). */
    bool degraded() const { return degraded_mode; }

  private:
    void sampleAt(double t);
    void decideAt(double t);
    void enterDegrade(double t);
    /** The planning pipeline with estimated pass fractions folded in. */
    Pipeline planningPipeline() const;
    void obsInstant(obs::EventKind kind, double t, int32_t a) const;

    Pipeline pipe; ///< copied: planning model
    NetworkLink base;
    ControllerOptions opts;
    ConditionEstimator est;
    obs::ObsConfig ob;
    int ob_camera = 0;
    StreamingPipeline *sp = nullptr;
    const NetworkTrace *net_trace = nullptr;
    const ContentTrace *content_trace = nullptr;
    const FaultPlan *fault_plan = nullptr;
    std::function<double()> clock_fn; ///< external trace clock
    std::unique_ptr<TelemetrySampler> sampler;
    PipelineConfig live;
    bool attached = false;
    bool degraded_mode = false;
    double next_sample = 0.0;
    double next_decision; ///< first decision one period in
    int decisions_since_switch = 0;
    int64_t n_switches = 0;
    std::vector<AdaptiveDecision> log;
};

/**
 * Fleet-wide closed-loop control: one designated *ticker* camera
 * clocks the loop, FleetOptimizer re-assigns every camera's
 * configuration under the estimated shared link, and each changed
 * camera is reconfigured in place (reconfigure() is thread-safe, so
 * crossing source threads is fine). Attach every camera through the
 * fleet's per-camera customize hook before the run starts.
 */
class FleetAdaptiveController
{
  public:
    /**
     * @p cameras is the planning model (pipelines are copied);
     * configs must match the fleet's initial assignment, fleet order.
     */
    FleetAdaptiveController(std::vector<FleetCameraModel> cameras,
                            NetworkLink base_link, SharePolicy policy,
                            FleetOptimizerGoal goal,
                            ControllerOptions options);

    void useNetworkTrace(const NetworkTrace *trace);

    /** Ground-truth loss sampling; see the solo controller's. */
    void useFaultPlan(const FaultPlan *plan);

    /** Decision/degrade/heal instants; see the solo controller's.
     *  Fleet decisions are attributed to the ticker, camera 0, unless
     *  @p camera says otherwise. */
    void setObs(const obs::ObsConfig &config, int camera = 0);

    /** Register camera @p index's pipeline; index 0 is the ticker. */
    void attachCamera(StreamingPipeline &sp, size_t index);

    void onFrame(int64_t id);

    const std::vector<AdaptiveDecision> &decisions() const
    {
        return log;
    }
    int64_t switches() const { return n_switches; }

    /** True while the fleet is delivering locally. */
    bool degraded() const { return degraded_mode; }

  private:
    void decideAt(double t);
    void enterDegrade(double t);
    void obsInstant(obs::EventKind kind, double t, int32_t a) const;

    std::vector<FleetCameraModel> cams;
    /** Owned pipeline copies cams' pointers reference. */
    std::vector<Pipeline> pipes;
    NetworkLink base;
    SharePolicy policy;
    FleetOptimizerGoal goal;
    ControllerOptions opts;
    ConditionEstimator est;
    obs::ObsConfig ob;
    int ob_camera = 0;
    const NetworkTrace *net_trace = nullptr;
    const FaultPlan *fault_plan = nullptr;
    std::vector<StreamingPipeline *> attached;
    bool degraded_mode = false;
    double next_sample = 0.0;
    double next_decision;
    int decisions_since_switch = 0;
    int64_t n_switches = 0;
    std::vector<AdaptiveDecision> log;
};

} // namespace incam

#endif // INCAM_ADAPT_CONTROLLER_HH
