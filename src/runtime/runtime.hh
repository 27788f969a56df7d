/**
 * @file
 * Streaming execution of a configured pipeline — the analytical cost
 * framework made to *run*.
 *
 * core/ predicts what a (Pipeline, PipelineConfig, NetworkLink) triple
 * costs; this module executes it over real frame traffic and measures.
 * The pipeline is compiled into a chain of stages — a frame source,
 * one stage per pipeline block, and an uplink stage — connected by
 * bounded SPSC frame queues and run concurrently, one stage per
 * thread, on the shared exec/ thread pool (each stage loop is one
 * chunk of a fork-join job with as many participants as stages).
 *
 * What each block stage *does* to a frame is governed by the frame's
 * configuration **epoch**. An epoch resolves the PipelineConfig into a
 * per-block plan: blocks included and before the offload cut are
 * active (modeled service time, energy, output bytes, gating); blocks
 * excluded or at/after the cut are inert pass-throughs. reconfigure()
 * publishes a new epoch mid-run, and the source stamps it onto every
 * subsequent frame — frames already in flight complete under the
 * epoch they started with, which is what makes an adaptive cut switch
 * lossless by construction: no frame is ever dropped, duplicated or
 * double-priced by a switch, and adapt/AdaptiveController leans on
 * exactly this guarantee.
 *
 * Each active compute stage is paced by a token bucket at the block's
 * modeled service rate (1 / ImplCost.time), so the executing pipeline
 * exhibits the model's claimed steady-state behaviour: frames pipeline
 * across stages and the slowest stage dominates. The uplink stage
 * transmits through a SharedLink (runtime/uplink.hh) — a fleet's, or
 * the run's own one-endpoint link — which paces at the link's goodput
 * and prices every byte that crosses the cut. Filter blocks
 * gate downstream traffic either deterministically (a Bresenham-style
 * accumulator reproducing the block's declared pass fraction *exactly*
 * — or, with a ContentTrace attached, the trace's time-varying pass
 * fraction) or by what their real executor observes in the pixels.
 *
 * The resulting RuntimeReport — measured FPS, per-stage occupancy and
 * queue depths, measured J/frame, end-to-end latency percentiles — is
 * directly comparable to the analytical EnergyReport /
 * ThroughputReport for the same configuration; bench_runtime_vs_model
 * and tests/test_runtime.cc hold the two within tolerance of each
 * other. A lock-free Telemetry probe additionally exposes the running
 * counters mid-stream, which is what adapt/ConditionEstimator samples.
 */

#ifndef INCAM_RUNTIME_RUNTIME_HH
#define INCAM_RUNTIME_RUNTIME_HH

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_safety.hh"
#include "core/pipeline.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "runtime/executor.hh"
#include "runtime/frame.hh"
#include "runtime/report.hh"
#include "runtime/uplink.hh"

namespace incam {

namespace sim {
class Clock; // sim/clock.hh
}

namespace obs {
enum class EventKind : uint8_t; // obs/trace.hh
class Counter;                  // obs/metrics.hh
class Gauge;                    // obs/metrics.hh
class LogHistogram;             // obs/histogram.hh
}

class TokenBucket;   // runtime/pacer.hh
class ContentTrace;  // trace/trace.hh
class FaultInjector; // fault/fault.hh

/** How filter blocks decide which frames continue downstream. */
enum class GatingMode
{
    /** Every frame passes — the throughput-semantics comparison mode
     *  (ThroughputReport ignores pass fractions too). */
    None,
    /** Deterministic accumulator reproducing each block's declared
     *  pass fraction exactly — the energy-semantics comparison mode. */
    Model,
    /** The stage's executor decides from the pixels (real traffic). */
    Executor,
};

/** What a stage does with a frame whose compute attempt faulted. */
enum class StageFaultAction
{
    Retry, ///< re-execute (paying service time and energy again)
    Drop,  ///< shed the frame, counted dropped-by-fault
};

/**
 * Per-block recovery policy for injected compute faults. A faulted
 * attempt either retries (up to max_retries re-executions, each
 * paying the block's modeled time and energy again) or sheds the
 * frame. The watchdog treats a stalled service — the fault plan's
 * slowdown at or past watchdog_slowdown — as a fault too, so a stage
 * stuck in a stall window degrades by this same policy instead of
 * silently running arbitrarily late.
 */
struct StagePolicy
{
    StageFaultAction on_fault = StageFaultAction::Retry;
    int max_retries = 1;
    /** Slowdown factor at which the watchdog declares the attempt
     *  faulted; 0 disables the watchdog. */
    double watchdog_slowdown = 0.0;
};

/** Knobs of a streaming run. */
struct RuntimeOptions
{
    /** Frames the source emits before closing the stream. */
    int64_t frames = 240;

    /**
     * Stop the source after this many *model seconds* of wall run
     * time (wall / time_scale), whatever the frame count reached — a
     * paced run against a finite trace ends at the trace horizon
     * instead of overrunning into its final segment. 0 disables;
     * `frames` still caps the stream either way.
     */
    double duration = 0.0;

    /** Capacity of every inter-stage queue (backpressure bound). */
    int queue_capacity = 8;

    GatingMode gating = GatingMode::Model;

    /**
     * Stretch every modeled service time (block times and link
     * transfer times) by this factor: > 1 slows the pipeline down,
     * < 1 speeds it up. Measured rates are reported both raw and
     * normalized back to model time, so slow real-world pipelines
     * (a sub-FPS backscatter camera) can be validated in milliseconds
     * and microsecond-scale ones stretched above the host's sleep
     * granularity.
     */
    double time_scale = 1.0;

    /**
     * Pace compute stages at their modeled service rate. With pacing
     * off a stage runs as fast as its executor does — measuring the
     * real software kernel instead of the modeled hardware block.
     */
    bool pace_stages = true;

    /**
     * Pace the uplink stage at the link's modeled goodput. Turning it
     * off (with pace_stages) makes a run pure counting — energy and
     * gating tests finish in milliseconds regardless of how slow the
     * modeled radio is. A paced run on a link with zero or NaN goodput
     * panics at run start.
     */
    bool pace_link = true;

    /** Token-bucket burst, in frames, for compute-stage pacers. */
    double stage_burst_frames = 2.0;

    /** Source emission rate in model FPS; 0 saturates the pipeline. */
    double source_fps = 0.0;

    /**
     * Model-time frame clock for trace-coupled runs: frame i sits at
     * i / trace_fps seconds on the trace clock (Frame::trace_time).
     * Zero disables the frame clock — trace consumers then fall back
     * to wall time. A frame clock makes trace pricing, content gating
     * and adaptive decisions bit-deterministic regardless of host
     * timing, so every determinism test sets it.
     */
    double trace_fps = 0.0;

    /**
     * Maximum number of configuration epochs (initial + reconfigure()
     * calls) a run can see. Sized up front so the epoch table never
     * reallocates under concurrent stage readers.
     */
    int epoch_capacity = 256;

    /** Uplink retry/timeout semantics (active with a fault injector
     *  attached; without one every first attempt succeeds). */
    DeliveryPolicy delivery;

    /** Default compute-fault policy for every block; override a
     *  single block with StreamingPipeline::setStagePolicy. */
    StagePolicy stage_policy;
};

/**
 * How a run executes — the *shape* of its concurrency. All shapes
 * produce the same reports, and in counting mode (pace_stages and
 * pace_link off, Model or None gating, a frame clock) they produce
 * bit-identical ledgers, energies and adaptive decisions; the shape
 * only decides what host resources the run consumes.
 */
enum class ExecutionMode
{
    /**
     * Solo-only: one host thread per pipeline stage, bounded SPSC
     * queues between them (the original run() shape). Real
     * concurrency: frames pipeline across stages. Requires a wall
     * clock.
     */
    ThreadedStages,

    /**
     * The whole chain serially on the calling thread, no queues (the
     * original runInline() shape). Works on any clock; on a
     * VirtualClock the run executes in model time at memory speed.
     */
    Inline,

    /**
     * Fleet-only: every camera runs its chain inline on its own
     * pool thread (the fleet's historical default). Core-count bound
     * (~kMaxWorkers cameras).
     */
    ThreadPerCamera,

    /**
     * Fleet-scale simulation: every camera is an event source on its
     * own VirtualClock, serialized by one EventScheduler; the shared
     * uplink drains in virtual time (sim/SimLink). One host core
     * simulates 100k cameras. For a solo pipeline this is Inline on a
     * self-owned VirtualClock.
     */
    DiscreteEvent,
};

/**
 * The one run entry point's options: which execution shape, and on
 * which clock. Everything else about a run (frames, pacing, gating,
 * policies) stays in RuntimeOptions / FleetOptions — RunOptions is
 * deliberately only the *execution* choice, so the same configured
 * pipeline can be run threaded today and discrete-event tomorrow
 * without touching its configuration.
 */
struct RunOptions
{
    ExecutionMode mode = ExecutionMode::ThreadedStages;

    /**
     * Time source for the run; null uses the process-wide WallClock.
     * A VirtualClock is only legal with Inline (the caller advances
     * time by the pipeline's own sleeps) — DiscreteEvent owns its
     * clocks and ThreadedStages/ThreadPerCamera need real sleeps.
     */
    sim::Clock *clock = nullptr;

    /**
     * Observability sinks for the run (default: off). A solo run
     * installs them as camera 0; CameraFleet::run(RunOptions) forwards
     * them to every camera pipeline under its fleet endpoint and name,
     * so one recorder/registry collects the whole fleet. Equivalent to
     * calling StreamingPipeline::setObs before the run.
     */
    obs::ObsConfig obs;
};

/**
 * Live counters of a streaming run, updated lock-free by the stage
 * threads and readable from any other thread at any time — the raw
 * feed adapt/ConditionEstimator computes windowed rates from. All
 * counters are cumulative since the start of the run; a sampler
 * differencing two snapshots gets exact per-window deltas.
 */
struct Telemetry
{
    std::atomic<int64_t> source_frames{0};
    std::atomic<int64_t> delivered_frames{0};
    /** Frames offered to / passed by the pipeline's first filter
     *  block (pass fraction < 1) while it was active. */
    std::atomic<int64_t> gate_in{0};
    std::atomic<int64_t> gate_pass{0};
    std::atomic<double> bytes_sent{0.0};     ///< air bytes (all attempts)
    std::atomic<double> comm_energy_j{0.0};  ///< radio joules so far
    std::atomic<double> latency_sum_s{0.0};  ///< wall end-to-end sum
    std::atomic<int64_t> latency_count{0};
    std::atomic<int> uplink_queue_depth{0};  ///< depth at last delivery
    std::atomic<int64_t> tx_attempts{0};     ///< transmission attempts
    std::atomic<int64_t> tx_losses{0};       ///< attempts lost
    std::atomic<int64_t> link_dropped{0};    ///< retry budget spent
    std::atomic<int64_t> delivered_local{0}; ///< degraded deliveries
    /** Transmission attempts beyond each frame's first — the fault
     *  pressure signal TelemetrySampler turns into a retry rate. */
    std::atomic<int64_t> retry_attempts{0};
    /** Cumulative model-time timeout/backoff waits accrued at the
     *  uplink (seconds) — how long recovery stalled the stream. */
    std::atomic<double> backoff_seconds{0.0};

    Telemetry() = default;
    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;
};

/**
 * A runnable instance of one pipeline configuration.
 *
 * Build it, optionally attach real executors, traces, an adaptive
 * controller's tick and a frame fill callback, then run(). Each
 * instance is single-use: run() consumes the stream. Must not be
 * invoked from inside a thread-pool worker (stage loops need real
 * concurrency, not inline nesting).
 */
class StreamingPipeline
{
  public:
    StreamingPipeline(const Pipeline &pipeline,
                      const PipelineConfig &config, NetworkLink link,
                      RuntimeOptions options = {});
    ~StreamingPipeline();

    /**
     * Attach a real executor to block @p block_index. The executor
     * runs whenever an epoch has the block active; blocks without an
     * executor run as purely modeled stages.
     */
    void setExecutor(int block_index,
                     std::unique_ptr<BlockExecutor> executor);

    /**
     * Provide pixel payloads: called once per source frame (in id
     * order, from the source stage's thread) to fill frame.image.
     * Without a source, frames carry only byte counts.
     */
    void setFrameFill(std::function<void(Frame &)> fill);

    /**
     * Observe every source emission: called with the frame id from
     * the source stage's thread *before* the frame's epoch is
     * stamped, so a reconfigure() issued inside the callback applies
     * to this very frame. The adaptive controller's clock: with a
     * frame clock (trace_fps) its decisions land on deterministic
     * frame boundaries.
     */
    void setSourceTick(std::function<void(int64_t id)> tick);

    /**
     * Drive Model-gating pass fractions from a content schedule: the
     * pipeline's first filter block follows motion_pass, the second
     * follows face_pass, each read at the frame's trace clock. The
     * trace must outlive the run; requires a frame clock (trace_fps).
     */
    void setContentTrace(const ContentTrace *trace);

    /**
     * Transmit through @p link (a fleet's, or a trace-driven one) as
     * @p endpoint instead of the run's own one-endpoint SharedLink.
     * The link must outlive the run; whether transmissions wait is
     * then its own pace option, not pace_link.
     */
    void attachSharedLink(SharedLink *link, int endpoint);

    /**
     * Subject this run to @p injector's fault plan, identifying as
     * @p camera for per-camera faults (crash windows, hash-draw
     * streams — a fleet passes each camera's endpoint index). The
     * injector is stateless and may be shared; it must outlive the
     * run. Null detaches.
     */
    void setFaultInjector(const FaultInjector *injector, int camera = 0);

    /** Override the compute-fault policy of one block (defaults to
     *  RuntimeOptions::stage_policy). */
    void setStagePolicy(int block_index, StagePolicy policy);

    /**
     * Switch the live configuration: frames emitted from now on run
     * under @p next (new cut, inclusion set and implementations);
     * frames in flight finish under their stamped epoch. Thread-safe
     * against a running stream and against itself; typically called
     * from the source tick. Validates @p next against the pipeline
     * and link exactly like construction does.
     */
    void reconfigure(const PipelineConfig &next);

    /**
     * As above, but @p deliver_local additionally marks the epoch
     * *degraded*: frames reaching the uplink stage are delivered
     * in-camera (no transmission, no radio energy) except for the
     * periodic link probes of DeliveryPolicy::probe_every. The
     * adaptive controller's degrade-to-local mode; the epoch
     * mechanism makes the switch lossless in both directions.
     */
    void reconfigure(const PipelineConfig &next, bool deliver_local);

    /** The configuration the pipeline was constructed with. */
    const PipelineConfig &initialConfig() const { return cfg; }

    /** The options the pipeline was constructed with. */
    const RuntimeOptions &runtimeOptions() const { return opts; }

    /** Live counters (valid before, during and after the run). */
    const Telemetry &telemetry() const { return probe; }

    /**
     * Inject the time source every pacer, deadline check, backoff
     * sleep and latency stamp of this pipeline reads. Defaults to the
     * process-wide WallClock; the discrete-event engine installs one
     * VirtualClock per camera. Must be set before the run starts and
     * must outlive it.
     */
    void setClock(sim::Clock *clock);

    /**
     * Install observability sinks (see obs/obs.hh): events and metric
     * updates carry @p camera as their identity (the exporter pid /
     * per-camera metric label) and @p label names both. Must be called
     * before the run starts; the sinks must outlive it. A RunOptions
     * with an active ObsConfig installs itself here as camera 0; a
     * fleet installs per camera. Every timestamp flows through the
     * run's sim::Clock (or, with ObsConfig::frame_time, the frame
     * clock) — src/obs never reads host time.
     */
    void setObs(const obs::ObsConfig &config, int camera = 0,
                const std::string &label = "");

    // ------- observability taps for external delivery schedulers ----
    // The discrete-event engine owns transmission scheduling, so the
    // per-attempt uplink events are exposed as helpers; deliverFrame()
    // emits through these same calls, which keeps the event sequence
    // of a frame identical across execution shapes. All are cheap
    // no-ops when no recorder is installed.

    /** Attempt @p attempt (1-based) of @p f started. */
    void obsTxAttempt(const Frame &f, int attempt);
    /** The medium granted attempt @p attempt's airtime for @p e. */
    void obsTxGrant(const Frame &f, int attempt, Energy e);
    /** The fault plan lost attempt @p attempt. */
    void obsTxLoss(const Frame &f, int attempt);
    /** Post-loss timeout/backoff of @p wait model seconds began. */
    void obsTxBackoff(const Frame &f, int attempt, double wait);

    /**
     * THE run entry point: execute the stream to completion under
     * @p options' execution shape and clock, and report measurements.
     * ThreadedStages must not be invoked from inside a thread-pool
     * worker (stage loops need real concurrency); Inline and
     * DiscreteEvent may. ThreadPerCamera is fleet-only and panics
     * here. Each instance is single-use regardless of shape.
     */
    RuntimeReport run(const RunOptions &options);

    /**
     * Deprecated shape-specific entry point; forwards to
     * run({ExecutionMode::ThreadedStages}). Prefer run(RunOptions).
     */
    RuntimeReport run();

    /**
     * Deprecated shape-specific entry point; forwards to
     * run({ExecutionMode::Inline}) on the installed clock. One loop
     * drives each frame source -> stages -> uplink with no queues;
     * token buckets accrue credit in parallel wall time, so the
     * steady-state rate is still min(stage rates, link rate). May be
     * called from inside a thread-pool worker. Prefer run(RunOptions).
     */
    RuntimeReport runInline();

    // ------- event composition: externally scheduled frame steps -----
    // The discrete-event engine (sim/SimEngine) drives many pipelines
    // from one event loop, so it needs the inline loop's per-frame
    // steps exposed individually: beginEventRun() once, then repeat
    // { nextFrame() -> planDelivery() -> its own transmission schedule
    // -> finishDelivery() } until nextFrame() returns Done, then
    // finishRun(). The split is exact: runInline() itself is now
    // written in these same steps, which is what makes discrete-event
    // runs bit-identical to inline ones by construction.

    /** What one source step produced. */
    enum class SourceStep
    {
        Emitted, ///< @p frame holds a live frame past all stages
        Skipped, ///< frame consumed pre-uplink (gated/crashed/shed)
        Done,    ///< stream over (frame budget or deadline)
    };

    /**
     * The delivery plan for one frame that reached the uplink stage:
     * whether to transmit at all (degraded epochs deliver locally),
     * whether this transmission is a degraded-mode probe, and how
     * many attempts the retry budget allows.
     */
    struct TxPlan
    {
        bool attempt_remote = false; ///< transmit (vs local delivery)
        bool is_probe = false;       ///< degraded-epoch link probe
        int budget = 1;              ///< attempts allowed (1+retries)
        bool local_epoch = false;    ///< frame's epoch is degraded
        double start_t = 0.0;        ///< clock time entering the sink
    };

    /** What the engine's transmission schedule measured. */
    struct TxOutcome
    {
        int attempts = 0;      ///< attempts actually made
        bool remote_ok = false;///< an attempt crossed the uplink
        Energy energy;         ///< radio energy, all attempts
        Energy retry_energy;   ///< share beyond the first attempt
        DataSize retry_bytes;  ///< air bytes beyond the first attempt
        double backoff_seconds = 0.0; ///< model-time waits accrued
    };

    /**
     * Arm the run state for the discrete-event engine so nextFrame()
     * can be called: no queues and no link, since the engine owns
     * delivery. Panics if a SharedLink is attached.
     */
    void beginEventRun();

    /**
     * Execute one full source step inline on the caller's clock:
     * source the next frame, run it through every stage. Emitted
     * leaves the frame in @p frame, ready for planDelivery().
     */
    SourceStep nextFrame(Frame &frame);

    /** Resolve @p frame's delivery plan and account its arrival at
     *  the sink. Call exactly once per Emitted frame. */
    TxPlan planDelivery(const Frame &frame);

    /** Does the fault plan lose attempt @p attempt (1-based) of
     *  @p frame? Pure (counter-hash draw); interleaving-independent. */
    bool txAttemptLost(const Frame &frame, int attempt) const;

    /** Model-time wait after @p failed_attempts lost attempts:
     *  ack_timeout + jittered exponential backoff. Pure. */
    double txBackoffWait(const Frame &frame, int failed_attempts) const;

    /** Book @p outcome for @p frame under @p plan: ledger, telemetry,
     *  latency, per-stage busy time. Call exactly once per Emitted
     *  frame, after the transmission schedule resolves. */
    void finishDelivery(const Frame &frame, const TxPlan &plan,
                        const TxOutcome &outcome);

    /** Next source frame id nextFrame() will emit (the engine's frame
     *  clock position). */
    int64_t nextSourceId() const;

    /** Assemble the report of a finished run and rethrow its first
     *  error. */
    RuntimeReport finishRun();

  private:
    struct RunState; // stage queues + measurement state of one run

    /** One block's resolved execution plan under one configuration. */
    struct BlockPlan
    {
        bool active = false;  ///< included and before the cut
        Time service;         ///< modeled per-frame time (0 = unpaced)
        Energy energy;        ///< modeled per-frame energy
        DataSize out_bytes;   ///< representation leaving this block
        double pass_fraction = 1.0;
        double pacer_rate = 0.0; ///< real tokens/s (0 = unpaced)
        std::string stage_name;  ///< "Block(IMPL)" or plain name
    };

    /** One published configuration and its per-block plans. */
    struct Epoch
    {
        PipelineConfig config;
        std::vector<BlockPlan> plans; ///< one per pipeline block
        /** Degraded epoch: the sink delivers in-camera (probes
         *  excepted) instead of transmitting. */
        bool local = false;
    };

    /** Arm the run state every shape shares: pacers, counters and the
     *  start time. */
    void initRun();
    /** Point the run at its uplink: the attached SharedLink, else a
     *  one-endpoint link of its own. */
    void openLink();
    /** The ThreadedStages body (the original run()). */
    RuntimeReport runThreaded();
    // The threaded shape's phases: beginRun(), then every stage index
    // in [0, stageCount()) executes runStage() concurrently (they
    // block on each other's queues), then finishRun().
    /** Concurrent stage loops run() needs: source + blocks + uplink. */
    int stageCount() const { return static_cast<int>(specs.size()) + 2; }
    void beginRun();
    void runStage(int stage);
    void sourceLoop();
    void blockLoop(size_t b);
    void uplinkLoop();
    /** RuntimeOptions::duration elapsed (always false when unset). */
    bool pastDeadline() const;
    /** Per-frame source body (shared by the threaded and inline
     *  shapes): construct, fill, tick, stamp, pace, account. */
    Frame makeSourceFrame(int64_t id, TokenBucket &pacer);
    /** Pacer factories shared by both shapes, so the rate formulas
     *  exist exactly once. */
    TokenBucket makeSourcePacer() const;
    TokenBucket makeStagePacer(size_t b) const;
    /** Per-frame body of block stage @p b (shared by the threaded and
     *  inline shapes): epoch plan lookup, accounting, executor,
     *  pacing, gating. Returns false when the frame was gated away
     *  (and counted dropped). @p pacer_epoch tracks which epoch's
     *  rate the stage pacer currently runs at. */
    bool processBlockFrame(size_t b, Frame &frame, TokenBucket &pacer,
                           int &pacer_epoch, double &pass_credit);
    /** Per-frame uplink body: planDelivery + the retry loop through
     *  the run's SharedLink + finishDelivery. */
    void deliverFrame(Frame &frame);
    /** Resolve a validated config into per-block plans. */
    Epoch makeEpoch(const PipelineConfig &config) const;

    /** Stable per-block stage state (executors survive epochs). */
    struct StageSpec
    {
        std::string name; ///< block name (report label base)
        /** Ordinal among the pipeline's filter blocks (declared pass
         *  fraction < 1), or -1: index into a ContentTrace's series. */
        int filter_ordinal = -1;
        std::unique_ptr<BlockExecutor> executor;
        StagePolicy policy; ///< compute-fault recovery for this block
    };

    Pipeline pipe; ///< copied: the instance outlives factory temporaries
    PipelineConfig cfg;
    NetworkLink net;
    RuntimeOptions opts;
    std::vector<StageSpec> specs; ///< one per pipeline block, in order
    std::function<void(Frame &)> fill_fn;
    std::function<void(int64_t)> tick_fn;
    const ContentTrace *content = nullptr; ///< non-owning
    SharedLink *shared_link = nullptr; ///< non-owning; see attach docs
    int shared_endpoint = -1;
    const FaultInjector *injector = nullptr; ///< non-owning
    int fault_camera = 0; ///< this run's identity to the injector
    sim::Clock *clk; ///< non-owning; ctor defaults to WallClock::shared()

    /**
     * The epoch table. Readers (stage threads) index it with a
     * frame's stamped epoch; the writer (reconfigure) appends under
     * epoch_mu and publishes through epoch_count with release order.
     * Reserved to epoch_capacity up front so concurrent reads never
     * race a reallocation.
     *
     * `epochs` deliberately carries no INCAM_GUARDED_BY: readers are
     * lock-free by design — an acquire load of epoch_count makes every
     * entry below it immutable and visible, so only *appends* need
     * epoch_mu. Thread-safety analysis cannot express this
     * release/acquire publication protocol (docs/static-analysis.md,
     * "What the annotations cannot see"); the invariants live in this
     * comment and in the adaptive determinism tests instead.
     */
    std::vector<Epoch> epochs;
    std::atomic<int> epoch_count{0};
    AnnotatedMutex epoch_mu; ///< serializes reconfigure() appends

    Telemetry probe;

    /** Resolved metric series handles for this camera's label, bound
     *  once in setObs() so hot paths update through stable pointers
     *  with no registry lookups. All null when no registry installed. */
    struct ObsHandles
    {
        obs::Counter *sourced = nullptr;
        obs::Counter *frames_delivered = nullptr;
        obs::Counter *frames_dropped = nullptr;
        obs::Counter *attempts = nullptr;
        obs::Counter *losses = nullptr;
        obs::Counter *retries = nullptr;
        obs::Counter *backoff = nullptr;
        obs::Counter *bytes = nullptr;
        obs::Counter *energy = nullptr;
        obs::LogHistogram *latency = nullptr;
        obs::Gauge *qdepth = nullptr;
    };

    /** Event timestamp for @p frame: the frame clock in frame_time
     *  mode (bit-deterministic across shapes), else @p clock_t. */
    double obsT(const Frame &frame, double clock_t) const;
    /** Record one event for this camera (no-op without a recorder);
     *  frame_time mode forces dur = 0 so spans collapse to instants.
     *  Inline: every emit site rides the per-frame hot loop, and the
     *  marshalling cost shows up directly in the DES overhead gate. */
    void
    obsRecord(obs::EventKind kind, int64_t frame, double t,
              double dur, int tid, uint32_t seq, int32_t a,
              int32_t b, double v)
    {
        obs::TraceEvent ev;
        ev.t = t;
        // Frame-time events are pure instants: a span's wall duration
        // is host noise, exactly what the byte-identity contract
        // excludes.
        ev.dur = ob.frame_time ? 0.0 : dur;
        ev.kind = kind;
        ev.camera = static_cast<int16_t>(ob_camera);
        ev.tid = static_cast<int16_t>(tid);
        ev.frame = frame;
        ev.seq = seq;
        ev.a = static_cast<int16_t>(a);
        ev.b = static_cast<int16_t>(b);
        ev.v = v;
        ob.recorder->record(ev);
    }

    obs::ObsConfig ob; ///< observability sinks; inactive by default
    int ob_camera = 0; ///< event/metric identity (exporter pid)
    ObsHandles oh;

    std::unique_ptr<RunState> rs;
    bool consumed = false;
};

} // namespace incam

#endif // INCAM_RUNTIME_RUNTIME_HH
