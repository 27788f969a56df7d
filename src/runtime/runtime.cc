#include "runtime/runtime.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

#include "common/logging.hh"
#include "common/thread_safety.hh"
#include "exec/thread_pool.hh"
#include "fault/fault.hh"
#include "obs/histogram.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/frame_queue.hh"
#include "runtime/pacer.hh"
#include "sim/clock.hh"
#include "trace/trace.hh"

namespace incam {

namespace {

/**
 * Deterministic per-site sequence keys for trace events. Within one
 * frame, every instrumentation site gets a distinct seq so the
 * exporter's total order (t, camera, frame, seq, ...) is independent
 * of which thread recorded what — in frame_time mode all of a frame's
 * events share one timestamp and seq alone orders them in pipeline
 * order: source < stage spans/faults < queue waits < tx attempts <
 * delivery < control instants.
 */
constexpr uint32_t
obsSeq(uint32_t site, uint32_t k = 0)
{
    return site * 256u + k;
}

constexpr uint32_t kSiteSource = 0;
constexpr uint32_t kSiteCrash = 1;
/** Block b's span: site 2 + 2b; its fault instants: site 3 + 2b. */
constexpr uint32_t kSiteStage0 = 2;
constexpr uint32_t kSiteQueueWait = 190; ///< k = consuming tid
/** Uplink attempt k (1-based): k = 4*min(k-1, 63) + offset, offsets
 *  attempt 0 / grant 1 / loss 2 / backoff 3. */
constexpr uint32_t kSiteTx = 200;
constexpr uint32_t kSiteDeliver = 240;
constexpr uint32_t kSiteReconfigure = 250;

constexpr uint32_t
txSeq(int attempt, uint32_t offset)
{
    const uint32_t k = attempt > 64 ? 63u
                                    : static_cast<uint32_t>(attempt - 1);
    return obsSeq(kSiteTx, 4u * k + offset);
}

} // namespace

/** Queues plus measurement state of one run (threaded or inline). */
struct StreamingPipeline::RunState
{
    /** Mutable measurement state of one stage, owned by one thread. */
    struct StageState
    {
        int64_t in = 0;
        int64_t out = 0;
        int64_t dropped = 0;
        int64_t fault_dropped = 0;    ///< of dropped: fault policy
        int64_t shutdown_dropped = 0; ///< downstream closed mid-push
        int64_t retries = 0;          ///< compute re-executions
        double busy_seconds = 0.0;
        Energy energy;
        DataSize bytes_sent;
        double first_delivery = 0.0; ///< clock seconds
        double last_delivery = 0.0;  ///< clock seconds
        bool delivered_any = false;
    };

    /** Delivery accounting, owned by the uplink stage's thread. */
    struct LinkCounters
    {
        int64_t attempts = 0;
        int64_t losses = 0;
        int64_t retried_frames = 0;
        int64_t delivered_remote = 0;
        int64_t delivered_local = 0;
        int64_t probes = 0;
        int64_t probe_ok = 0;
        int64_t local_seq = 0; ///< degraded frames seen (probe cadence)
        double backoff_s = 0.0;
        DataSize retry_bytes;
        DataSize delivered_payload; ///< remote payload (no retries)
        Energy retry_energy;
    };

    explicit RunState(TokenBucket source) : source_pacer(source) {}

    std::vector<std::unique_ptr<FrameQueue>> queues; ///< empty inline

    // Pacing state lives in the run, one entry per stage, so the
    // threaded loops, the inline loop and the discrete-event engine's
    // stepwise drive all share it. Each pacer is still touched by
    // exactly one thread (its stage's), as before.
    std::vector<TokenBucket> stage_pacers;
    std::vector<int> pacer_epochs;
    std::vector<double> pass_credits;
    TokenBucket source_pacer;

    /** The uplink deliverFrame() transmits through: the attached
     *  SharedLink or own_link. Null under the discrete-event engine,
     *  which owns delivery. */
    SharedLink *link = nullptr;
    int endpoint = -1;
    /** A solo run's one-endpoint link. */
    std::unique_ptr<SharedLink> own_link;

    std::vector<StageState> state;
    LinkCounters lc;
    /** End-to-end delivery latency (clock seconds), log-bucketed: the
     *  report's percentiles come from here at ~4.4% relative error
     *  with O(buckets) memory instead of one double per delivery. */
    obs::LogHistogram latency_hist;
    AnnotatedMutex error_mu;
    std::exception_ptr first_error INCAM_GUARDED_BY(error_mu);
    double run_start = 0.0; ///< clock seconds
    int64_t next_id = 0;    ///< next source frame (stepwise drive)
    int64_t last_id = -1;   ///< last frame the uplink saw (ordering)
};

StreamingPipeline::StreamingPipeline(const Pipeline &pipeline,
                                     const PipelineConfig &config,
                                     NetworkLink link,
                                     RuntimeOptions options)
    : pipe(pipeline), cfg(config), net(std::move(link)),
      opts(std::move(options)), clk(&sim::WallClock::shared())
{
    PipelineEvaluator(pipe, net).check(cfg);
    incam_assert(opts.frames > 0, "a stream needs at least one frame");
    incam_assert(opts.time_scale > 0.0, "time_scale must be positive");
    incam_assert(opts.epoch_capacity >= 1,
                 "epoch_capacity must cover at least the initial config");
    int filter_ordinal = 0;
    for (int i = 0; i < pipe.blockCount(); ++i) {
        const Block &b = pipe.block(i);
        StageSpec spec;
        spec.name = b.name();
        spec.filter_ordinal =
            b.passFraction() < 1.0 ? filter_ordinal++ : -1;
        spec.policy = opts.stage_policy;
        specs.push_back(std::move(spec));
    }
    // The epoch table must never reallocate: stage threads index it
    // concurrently with reconfigure() appends.
    epochs.reserve(static_cast<size_t>(opts.epoch_capacity));
    epochs.push_back(makeEpoch(cfg));
    epoch_count.store(1, std::memory_order_release);
}

StreamingPipeline::~StreamingPipeline() = default;

StreamingPipeline::Epoch
StreamingPipeline::makeEpoch(const PipelineConfig &config) const
{
    Epoch ep;
    ep.config = config;
    for (int i = 0; i < pipe.blockCount(); ++i) {
        const size_t bi = static_cast<size_t>(i);
        const Block &b = pipe.block(i);
        BlockPlan plan;
        plan.active = i < config.cut && config.include[bi];
        if (plan.active) {
            const Impl impl = config.impl[bi];
            const ImplCost &cost = b.cost(impl);
            plan.service = cost.time;
            plan.energy = cost.energy;
            plan.out_bytes = b.outputBytes();
            plan.pass_fraction = b.passFraction();
            plan.pacer_rate =
                opts.pace_stages && cost.time.sec() > 0.0
                    ? 1.0 / (cost.time.sec() * opts.time_scale)
                    : 0.0;
            plan.stage_name =
                b.name() + "(" + implName(impl) + ")";
        } else {
            plan.stage_name = b.name();
        }
        ep.plans.push_back(std::move(plan));
    }
    return ep;
}

void
StreamingPipeline::reconfigure(const PipelineConfig &next)
{
    reconfigure(next, false);
}

void
StreamingPipeline::reconfigure(const PipelineConfig &next,
                               bool deliver_local)
{
    PipelineEvaluator(pipe, net).check(next);
    Epoch ep = makeEpoch(next);
    ep.local = deliver_local;
    MutexLock lk(epoch_mu);
    incam_assert(epochs.size() < epochs.capacity(),
                 "epoch table full (", epochs.capacity(),
                 "): raise RuntimeOptions::epoch_capacity");
    epochs.push_back(std::move(ep));
    epoch_count.store(static_cast<int>(epochs.size()),
                      std::memory_order_release);
    if (ob.recorder != nullptr && !ob.frame_time) {
        // Epoch publication is a run-clock instant, not a frame event
        // (frames stamp their epoch at the source); frame_time traces
        // skip it, like queue waits.
        obsRecord(obs::EventKind::Reconfigure, -1, clk->now(), 0.0,
                  obs::kTidController, obsSeq(kSiteReconfigure), 0,
                  static_cast<int32_t>(epochs.size()) - 1, 0.0);
    }
}

void
StreamingPipeline::setExecutor(int block_index,
                               std::unique_ptr<BlockExecutor> executor)
{
    incam_assert(block_index >= 0 &&
                     static_cast<size_t>(block_index) < specs.size(),
                 "block ", block_index,
                 " is not a stage of this pipeline");
    specs[static_cast<size_t>(block_index)].executor =
        std::move(executor);
}

void
StreamingPipeline::setFrameFill(std::function<void(Frame &)> fill)
{
    fill_fn = std::move(fill);
}

void
StreamingPipeline::setSourceTick(std::function<void(int64_t)> tick)
{
    tick_fn = std::move(tick);
}

void
StreamingPipeline::setFaultInjector(const FaultInjector *fault_injector,
                                    int camera)
{
    incam_assert(camera >= 0, "fault camera identity must be >= 0");
    injector = fault_injector;
    fault_camera = camera;
}

void
StreamingPipeline::setStagePolicy(int block_index, StagePolicy policy)
{
    incam_assert(block_index >= 0 &&
                     static_cast<size_t>(block_index) < specs.size(),
                 "block ", block_index,
                 " is not a stage of this pipeline");
    incam_assert(policy.max_retries >= 0,
                 "stage retry budget must be >= 0");
    specs[static_cast<size_t>(block_index)].policy = policy;
}

void
StreamingPipeline::setContentTrace(const ContentTrace *trace)
{
    incam_assert(trace == nullptr || opts.trace_fps > 0.0,
                 "a content trace needs the frame clock: set "
                 "RuntimeOptions::trace_fps");
    content = trace;
}

void
StreamingPipeline::attachSharedLink(SharedLink *link, int endpoint)
{
    incam_assert(link != nullptr && endpoint >= 0,
                 "a shared link needs a valid endpoint");
    shared_link = link;
    shared_endpoint = endpoint;
}

void
StreamingPipeline::setClock(sim::Clock *clock)
{
    incam_assert(clock != nullptr, "a pipeline needs a time source");
    incam_assert(rs == nullptr && !consumed,
                 "the clock must be installed before the run starts");
    clk = clock;
}

void
StreamingPipeline::setObs(const obs::ObsConfig &config, int camera,
                          const std::string &label)
{
    incam_assert(rs == nullptr && !consumed,
                 "observability must be installed before the run starts");
    incam_assert(camera >= 0, "obs camera identity must be >= 0");
    incam_assert(!config.frame_time || opts.trace_fps > 0.0,
                 "ObsConfig::frame_time needs the frame clock: set "
                 "RuntimeOptions::trace_fps");
    ob = config;
    ob_camera = camera;
    if (ob.recorder != nullptr && !label.empty()) {
        ob.recorder->setCameraLabel(camera, label);
    }
    oh = ObsHandles{};
    if (ob.registry != nullptr) {
        obs::MetricsRegistry &reg = *ob.registry;
        oh.sourced = &reg.counter("frames_sourced", label);
        oh.frames_delivered = &reg.counter("frames_delivered", label);
        oh.frames_dropped = &reg.counter("frames_dropped", label);
        oh.attempts = &reg.counter("tx_attempts", label);
        oh.losses = &reg.counter("tx_losses", label);
        oh.retries = &reg.counter("retry_attempts", label);
        oh.backoff = &reg.counter("backoff_seconds", label);
        oh.bytes = &reg.counter("bytes_sent", label);
        oh.energy = &reg.counter("comm_energy_j", label);
        oh.latency = &reg.histogram("latency_s", label);
        oh.qdepth = &reg.gauge("uplink_queue_depth", label);
    }
}

double
StreamingPipeline::obsT(const Frame &f, double clock_t) const
{
    return ob.frame_time ? f.trace_time : clock_t;
}

void
StreamingPipeline::obsTxAttempt(const Frame &f, int attempt)
{
    if (ob.recorder == nullptr) {
        return;
    }
    obsRecord(obs::EventKind::TxAttempt, f.id, obsT(f, clk->now()),
              0.0, obs::kTidUplink, txSeq(attempt, 0), attempt, 0,
              f.bytes.b());
}

void
StreamingPipeline::obsTxGrant(const Frame &f, int attempt, Energy e)
{
    if (ob.recorder == nullptr) {
        return;
    }
    obsRecord(obs::EventKind::TxGrant, f.id, obsT(f, clk->now()), 0.0,
              obs::kTidUplink, txSeq(attempt, 1), attempt, 0, e.j());
}

void
StreamingPipeline::obsTxLoss(const Frame &f, int attempt)
{
    if (ob.recorder == nullptr) {
        return;
    }
    obsRecord(obs::EventKind::TxLoss, f.id, obsT(f, clk->now()), 0.0,
              obs::kTidUplink, txSeq(attempt, 2), attempt, 0, 0.0);
}

void
StreamingPipeline::obsTxBackoff(const Frame &f, int attempt, double wait)
{
    if (ob.recorder == nullptr) {
        return;
    }
    obsRecord(obs::EventKind::TxBackoff, f.id, obsT(f, clk->now()),
              wait * opts.time_scale, obs::kTidUplink,
              txSeq(attempt, 3), attempt, 0, wait);
}

void
StreamingPipeline::initRun()
{
    incam_assert(!consumed, "a StreamingPipeline instance is single-use");
    consumed = true;
    rs = std::make_unique<RunState>(makeSourcePacer());
    rs->state.resize(specs.size() + 2);
    rs->stage_pacers.reserve(specs.size());
    for (size_t b = 0; b < specs.size(); ++b) {
        rs->stage_pacers.push_back(makeStagePacer(b));
    }
    rs->pacer_epochs.assign(specs.size(), 0);
    rs->pass_credits.assign(specs.size(), 0.0);
    rs->run_start = clk->now();
}

void
StreamingPipeline::openLink()
{
    if (shared_link != nullptr) {
        rs->link = shared_link;
        rs->endpoint = shared_endpoint;
        return;
    }
    SharedLink::Options lo;
    lo.time_scale = opts.time_scale;
    lo.pace = opts.pace_link;
    lo.clock = clk;
    rs->own_link = std::make_unique<SharedLink>(net, lo);
    rs->link = rs->own_link.get();
    rs->endpoint = rs->own_link->addEndpoint(pipe.name());
}

void
StreamingPipeline::beginRun()
{
    incam_assert(!clk->virtualTime(),
                 "threaded stages need a wall clock: queue waits block "
                 "host threads (use Inline or DiscreteEvent on a "
                 "VirtualClock)");
    initRun();
    openLink();
    for (int i = 0; i + 1 < stageCount(); ++i) {
        rs->queues.push_back(
            std::make_unique<FrameQueue>(opts.queue_capacity));
    }
}

void
StreamingPipeline::beginEventRun()
{
    incam_assert(shared_link == nullptr,
                 "the discrete-event engine owns delivery: a pipeline it "
                 "drives must not have a SharedLink attached");
    initRun(); // no queues: frames step through the chain one by one
}

bool
StreamingPipeline::processBlockFrame(size_t b, Frame &f,
                                     TokenBucket &pacer,
                                     int &pacer_epoch,
                                     double &pass_credit)
{
    StageSpec &spec = specs[b];
    RunState::StageState &st = rs->state[b + 1];
    ++st.in;
    const Epoch &ep = epochs[static_cast<size_t>(f.epoch)];
    const BlockPlan &plan = ep.plans[b];
    if (!plan.active) {
        // Cloud-side or excluded under this frame's epoch: the stage
        // is an inert pass-through (no time, energy or gating).
        return true;
    }
    const double t0 = clk->now();
    const double slowdown =
        injector != nullptr
            ? injector->stageSlowdown(static_cast<int>(b), f.trace_time)
            : 1.0;
    bool executor_pass = true;
    bool completed = false;
    int attempt = 0;
    for (;;) {
        // Every execution attempt — first or retry — pays the block's
        // modeled time and energy in full.
        st.energy += plan.energy;
        // The modeled representation change; a real executor may
        // refine it (e.g. a codec's actual encoded size).
        f.bytes = plan.out_bytes;
        if (spec.executor) {
            executor_pass = spec.executor->process(f);
        }
        if (f.epoch != pacer_epoch) {
            // The epoch moved this block to a different implementation
            // (or back from the cloud): re-rate the pacer, debt intact.
            pacer.setRate(plan.pacer_rate);
            pacer_epoch = f.epoch;
        }
        // A stalled stage pays slowdown x the modeled service time.
        pacer.acquire(slowdown);
        bool faulted =
            injector != nullptr &&
            injector->stageFaulted(fault_camera, static_cast<int>(b),
                                   f.id, attempt);
        if (!faulted && spec.policy.watchdog_slowdown > 0.0 &&
            slowdown >= spec.policy.watchdog_slowdown) {
            // Watchdog: the attempt ran too far past its modeled
            // service time; treat the stall as a fault.
            faulted = true;
        }
        if (!faulted) {
            completed = true;
            break;
        }
        if (ob.recorder != nullptr) {
            obsRecord(obs::EventKind::StageFault, f.id,
                      obsT(f, clk->now()), 0.0,
                      obs::kTidBlock0 + static_cast<int>(b),
                      obsSeq(kSiteStage0 + 1 +
                                 2 * static_cast<uint32_t>(b),
                             static_cast<uint32_t>(attempt)),
                      attempt, 0, 0.0);
        }
        if (spec.policy.on_fault == StageFaultAction::Retry &&
            attempt < spec.policy.max_retries) {
            ++attempt;
            ++st.retries;
            continue;
        }
        break;
    }
    if (!completed) {
        ++st.dropped;
        ++st.fault_dropped;
        const double t_done = clk->now();
        st.busy_seconds += t_done - t0;
        if (ob.recorder != nullptr) {
            obsRecord(obs::EventKind::Stage, f.id, obsT(f, t0),
                      t_done - t0,
                      obs::kTidBlock0 + static_cast<int>(b),
                      obsSeq(kSiteStage0 + 2 * static_cast<uint32_t>(b)),
                      attempt, 2, 0.0);
        }
        if (oh.frames_dropped != nullptr) {
            oh.frames_dropped->add(1.0);
        }
        return false;
    }
    double pass_fraction = plan.pass_fraction;
    if (content != nullptr && spec.filter_ordinal >= 0) {
        // Scene-content schedule: this filter's pass fraction at the
        // frame's trace-clock instant.
        const ContentSegment &cs =
            content->at(Time::seconds(f.trace_time));
        pass_fraction = spec.filter_ordinal == 0 ? cs.motion_pass
                                                 : cs.face_pass;
    }
    bool pass = true;
    switch (opts.gating) {
      case GatingMode::None:
        break;
      case GatingMode::Model:
        // Bresenham accumulator: after n frames exactly
        // floor(n * pass_fraction + eps) have passed (with a content
        // trace, the accumulator follows the schedule windows).
        pass_credit += pass_fraction;
        pass = pass_credit + 1e-9 >= 1.0;
        if (pass) {
            pass_credit -= 1.0;
        }
        break;
      case GatingMode::Executor:
        pass = executor_pass;
        break;
    }
    // Gate telemetry is only meaningful when gating actually gates:
    // under GatingMode::None every frame passes by construction, and
    // feeding that to an estimator would teach it pass = 1.0 for a
    // gate that was never exercised.
    if (spec.filter_ordinal == 0 && opts.gating != GatingMode::None) {
        probe.gate_in.fetch_add(1, std::memory_order_relaxed);
        if (pass) {
            probe.gate_pass.fetch_add(1, std::memory_order_relaxed);
        }
    }
    const double t_done = clk->now();
    st.busy_seconds += t_done - t0;
    if (ob.recorder != nullptr) {
        obsRecord(obs::EventKind::Stage, f.id, obsT(f, t0),
                  t_done - t0, obs::kTidBlock0 + static_cast<int>(b),
                  obsSeq(kSiteStage0 + 2 * static_cast<uint32_t>(b)),
                  attempt, pass ? 0 : 1, 0.0);
    }
    if (!pass) {
        ++st.dropped;
        if (oh.frames_dropped != nullptr) {
            oh.frames_dropped->add(1.0);
        }
    }
    return pass;
}

StreamingPipeline::TxPlan
StreamingPipeline::planDelivery(const Frame &f)
{
    RunState::StageState &st = rs->state.back();
    RunState::LinkCounters &lc = rs->lc;
    ++st.in;
    incam_assert(f.id > rs->last_id, "uplink saw frame ", f.id,
                 " after ", rs->last_id, ": SPSC ordering violated");
    rs->last_id = f.id;

    TxPlan p;
    p.start_t = clk->now();
    // A degraded (local-delivery) epoch keeps frames in-camera: no
    // transmission, no radio energy — except the periodic probe that
    // tests whether the link healed.
    p.local_epoch = epochs[static_cast<size_t>(f.epoch)].local;
    p.attempt_remote = !p.local_epoch;
    if (p.local_epoch && opts.delivery.probe_every > 0) {
        p.is_probe = lc.local_seq++ % opts.delivery.probe_every == 0;
        p.attempt_remote = p.is_probe;
    }
    // Probes get one attempt: their job is measurement, not delivery.
    p.budget =
        p.is_probe ? 1 : 1 + std::max(0, opts.delivery.max_retries);
    return p;
}

bool
StreamingPipeline::txAttemptLost(const Frame &f, int attempt) const
{
    // The fault plan's hash draw decides each attempt independently,
    // keyed by (camera, frame, attempt) so the outcome sequence is the
    // same under every execution shape.
    return injector != nullptr &&
           injector->txLost(fault_camera, f.id, attempt - 1,
                            f.trace_time);
}

double
StreamingPipeline::txBackoffWait(const Frame &f,
                                 int failed_attempts) const
{
    double wait = opts.delivery.ack_timeout +
                  opts.delivery.backoff_base *
                      std::ldexp(1.0, failed_attempts - 1);
    if (opts.delivery.backoff_jitter > 0.0 && injector != nullptr &&
        wait > 0.0) {
        const double u = injector->backoffJitter(
            fault_camera, f.id, failed_attempts - 1);
        wait *= 1.0 +
                opts.delivery.backoff_jitter * (2.0 * u - 1.0);
    }
    return wait;
}

void
StreamingPipeline::finishDelivery(const Frame &f, const TxPlan &plan,
                                  const TxOutcome &out)
{
    RunState::StageState &st = rs->state.back();
    RunState::LinkCounters &lc = rs->lc;
    if (plan.attempt_remote) {
        lc.attempts += out.attempts;
        lc.losses += out.attempts - (out.remote_ok ? 1 : 0);
        if (out.attempts > 1) {
            ++lc.retried_frames;
        }
        lc.retry_bytes += out.retry_bytes;
        lc.retry_energy += out.retry_energy;
        lc.backoff_s += out.backoff_seconds;
        if (plan.is_probe) {
            ++lc.probes;
            if (out.remote_ok) {
                ++lc.probe_ok;
            }
        }
        probe.tx_attempts.fetch_add(out.attempts,
                                    std::memory_order_relaxed);
        probe.tx_losses.fetch_add(out.attempts -
                                      (out.remote_ok ? 1 : 0),
                                  std::memory_order_relaxed);
        if (out.attempts > 1) {
            probe.retry_attempts.fetch_add(out.attempts - 1,
                                           std::memory_order_relaxed);
        }
        if (out.backoff_seconds > 0.0) {
            probe.backoff_seconds.fetch_add(out.backoff_seconds,
                                            std::memory_order_relaxed);
        }
        if (oh.attempts != nullptr) {
            oh.attempts->add(static_cast<double>(out.attempts));
            oh.losses->add(static_cast<double>(
                out.attempts - (out.remote_ok ? 1 : 0)));
            if (out.attempts > 1) {
                oh.retries->add(
                    static_cast<double>(out.attempts - 1));
            }
            oh.backoff->add(out.backoff_seconds);
        }
    }

    // Air bytes: every attempt crossed the radio, so byte and energy
    // totals (and their telemetry) carry the retries — the honest
    // re-pricing the ledger then itemizes.
    const double air_bytes =
        f.bytes.b() * static_cast<double>(out.attempts);
    st.energy += out.energy;
    st.bytes_sent += DataSize::bytes(air_bytes);
    const double t1 = clk->now();
    st.busy_seconds += t1 - plan.start_t;
    probe.bytes_sent.fetch_add(air_bytes, std::memory_order_relaxed);
    probe.comm_energy_j.fetch_add(out.energy.j(),
                                  std::memory_order_relaxed);
    if (!rs->queues.empty()) {
        probe.uplink_queue_depth.store(rs->queues.back()->depth(),
                                       std::memory_order_relaxed);
        if (oh.qdepth != nullptr) {
            oh.qdepth->set(static_cast<double>(
                rs->queues.back()->depth()));
        }
    }
    if (oh.bytes != nullptr) {
        oh.bytes->add(air_bytes);
        oh.energy->add(out.energy.j());
    }

    const bool delivered = out.remote_ok || plan.local_epoch;
    if (ob.recorder != nullptr) {
        const int outcome =
            out.remote_ok ? 1 : (plan.local_epoch ? 2 : 0);
        obsRecord(obs::EventKind::Deliver, f.id,
                  obsT(f, plan.start_t), t1 - plan.start_t,
                  obs::kTidUplink, obsSeq(kSiteDeliver), out.attempts,
                  outcome, air_bytes);
    }
    if (!delivered) {
        // Retry budget spent: the frame is shed at the link.
        ++st.dropped;
        probe.link_dropped.fetch_add(1, std::memory_order_relaxed);
        if (oh.frames_dropped != nullptr) {
            oh.frames_dropped->add(1.0);
        }
        return;
    }
    ++st.out;
    if (out.remote_ok) {
        ++lc.delivered_remote;
        lc.delivered_payload += f.bytes;
    } else {
        ++lc.delivered_local;
        probe.delivered_local.fetch_add(1, std::memory_order_relaxed);
    }
    if (!st.delivered_any) {
        st.delivered_any = true;
        st.first_delivery = t1;
    }
    st.last_delivery = t1;

    const double latency = t1 - f.emit_s;
    rs->latency_hist.record(latency);
    probe.delivered_frames.fetch_add(1, std::memory_order_relaxed);
    probe.latency_sum_s.fetch_add(latency, std::memory_order_relaxed);
    probe.latency_count.fetch_add(1, std::memory_order_relaxed);
    if (oh.frames_delivered != nullptr) {
        oh.frames_delivered->add(1.0);
    }
    if (oh.latency != nullptr) {
        oh.latency->record(latency / opts.time_scale);
    }
}

void
StreamingPipeline::deliverFrame(Frame &f)
{
    TxPlan plan = planDelivery(f);
    TxOutcome out;
    if (plan.attempt_remote) {
        // Bounded retry with timeout + exponential backoff. Every
        // attempt pays full bytes, airtime and Joules.
        for (;;) {
            ++out.attempts;
            obsTxAttempt(f, out.attempts);
            const Energy attempt_e =
                rs->link->acquire(rs->endpoint, f.bytes.b(), f.trace_time);
            out.energy += attempt_e;
            obsTxGrant(f, out.attempts, attempt_e);
            if (out.attempts > 1) {
                out.retry_bytes += f.bytes;
                out.retry_energy += attempt_e;
            }
            if (!txAttemptLost(f, out.attempts)) {
                out.remote_ok = true;
                break;
            }
            obsTxLoss(f, out.attempts);
            if (out.attempts >= plan.budget) {
                break;
            }
            const double wait = txBackoffWait(f, out.attempts);
            out.backoff_seconds += wait;
            obsTxBackoff(f, out.attempts, wait);
            if (opts.pace_link && wait > 0.0) {
                clk->sleepFor(wait * opts.time_scale);
            }
        }
    }
    finishDelivery(f, plan, out);
}

TokenBucket
StreamingPipeline::makeSourcePacer() const
{
    return TokenBucket(opts.source_fps > 0.0
                           ? opts.source_fps / opts.time_scale
                           : 0.0,
                       opts.stage_burst_frames, clk);
}

TokenBucket
StreamingPipeline::makeStagePacer(size_t b) const
{
    return TokenBucket(epochs.front().plans[b].pacer_rate,
                       opts.stage_burst_frames, clk);
}

void
StreamingPipeline::sourceLoop()
{
    RunState::StageState &st = rs->state[0];
    FrameQueue &out = *rs->queues[0];
    for (int64_t id = 0; id < opts.frames && !pastDeadline(); ++id) {
        Frame f = makeSourceFrame(id, rs->source_pacer);
        if (injector != nullptr &&
            injector->cameraDown(fault_camera, f.trace_time)) {
            // Crash window: the camera is down, the frame never
            // leaves it. The frame clock keeps advancing, so the
            // restarted camera rejoins the schedule on time.
            ++st.dropped;
            if (ob.recorder != nullptr) {
                obsRecord(obs::EventKind::Crash, f.id,
                          obsT(f, f.emit_s), 0.0, obs::kTidSource,
                          obsSeq(kSiteCrash), 0, 0, 0.0);
            }
            if (oh.frames_dropped != nullptr) {
                oh.frames_dropped->add(1.0);
            }
            continue;
        }
        if (ob.recorder != nullptr && !ob.frame_time) {
            f.obs_ts = clk->now();
        }
        if (!out.push(std::move(f))) {
            // Downstream shut down early: a clean reject, counted so
            // the loss ledger still balances.
            ++st.shutdown_dropped;
            break;
        }
        ++st.out;
    }
    out.close();
}

bool
StreamingPipeline::pastDeadline() const
{
    return opts.duration > 0.0 &&
           clk->now() - rs->run_start >=
               opts.duration * opts.time_scale;
}

Frame
StreamingPipeline::makeSourceFrame(int64_t id, TokenBucket &pacer)
{
    RunState::StageState &st = rs->state[0];
    const double t0 = clk->now();
    Frame f;
    f.id = id;
    f.bytes = pipe.sourceBytes();
    if (fill_fn) {
        fill_fn(f);
    }
    if (tick_fn) {
        // The adaptive hook: runs before the epoch stamp so a
        // reconfigure() issued here governs this very frame.
        tick_fn(id);
    }
    f.epoch = epoch_count.load(std::memory_order_acquire) - 1;
    f.trace_time = opts.trace_fps > 0.0
                       ? static_cast<double>(id) / opts.trace_fps
                       : -1.0;
    pacer.acquire(1.0);
    f.emit_s = clk->now();
    probe.source_frames.fetch_add(1, std::memory_order_relaxed);
    st.busy_seconds += f.emit_s - t0;
    if (ob.recorder != nullptr) {
        obsRecord(obs::EventKind::Source, f.id, obsT(f, f.emit_s),
                  0.0, obs::kTidSource, obsSeq(kSiteSource), 0, 0,
                  f.bytes.b());
    }
    if (oh.sourced != nullptr) {
        oh.sourced->add(1.0);
    }
    return f;
}

void
StreamingPipeline::blockLoop(size_t b)
{
    RunState::StageState &st = rs->state[b + 1];
    FrameQueue &in = *rs->queues[b];
    FrameQueue &out = *rs->queues[b + 1];
    Frame f;
    while (in.pop(f)) {
        if (ob.recorder != nullptr && !ob.frame_time) {
            const int tid = obs::kTidBlock0 + static_cast<int>(b);
            const double now = clk->now();
            obsRecord(obs::EventKind::QueueWait, f.id, f.obs_ts,
                      now - f.obs_ts, tid,
                      obsSeq(kSiteQueueWait,
                             static_cast<uint32_t>(tid)),
                      0, 0, 0.0);
        }
        if (!processBlockFrame(b, f, rs->stage_pacers[b],
                               rs->pacer_epochs[b],
                               rs->pass_credits[b])) {
            continue;
        }
        if (ob.recorder != nullptr && !ob.frame_time) {
            f.obs_ts = clk->now();
        }
        if (!out.push(std::move(f))) {
            ++st.shutdown_dropped;
            break;
        }
        ++st.out;
    }
    in.close();
    out.close();
}

void
StreamingPipeline::uplinkLoop()
{
    FrameQueue &in = *rs->queues.back();
    Frame f;
    while (in.pop(f)) {
        if (ob.recorder != nullptr && !ob.frame_time) {
            const double now = clk->now();
            obsRecord(obs::EventKind::QueueWait, f.id, f.obs_ts,
                      now - f.obs_ts, obs::kTidUplink,
                      obsSeq(kSiteQueueWait, obs::kTidUplink), 0, 0,
                      0.0);
        }
        deliverFrame(f);
    }
    in.close();
    rs->link->release(rs->endpoint);
}

void
StreamingPipeline::runStage(int stage)
{
    incam_assert(rs != nullptr, "beginRun() must precede runStage()");
    const size_t n_stages = static_cast<size_t>(stageCount());
    incam_assert(stage >= 0 && static_cast<size_t>(stage) < n_stages,
                 "stage ", stage, " out of range");
    // One stage throwing must not strand its neighbours on a queue:
    // record the first error, close the stage's queues (which cascades
    // a clean shutdown through the chain), and rethrow in finishRun().
    try {
        if (stage == 0) {
            sourceLoop();
        } else if (static_cast<size_t>(stage) + 1 < n_stages) {
            blockLoop(static_cast<size_t>(stage) - 1);
        } else {
            uplinkLoop();
        }
    } catch (...) {
        {
            MutexLock lk(rs->error_mu);
            if (!rs->first_error) {
                rs->first_error = std::current_exception();
            }
        }
        const size_t s = static_cast<size_t>(stage);
        if (s > 0) {
            rs->queues[s - 1]->close();
        }
        if (s < rs->queues.size()) {
            rs->queues[s]->close();
        }
        // An uplink that died while holding a link registration must
        // still release it, or siblings inherit a ghost endpoint.
        if (s + 1 == n_stages) {
            rs->link->release(rs->endpoint);
        }
    }
}

RuntimeReport
StreamingPipeline::runThreaded()
{
    incam_assert(!ThreadPool::inWorker(),
                 "the streaming runtime cannot run nested inside a "
                 "thread-pool worker: stage loops need real concurrency"
                 " (use ExecutionMode::Inline for single-thread "
                 "execution)");
    // Every stage loop must run concurrently or the chain deadlocks on
    // a full queue, so the pool's participant cap bounds the chain.
    const size_t n_stages = static_cast<size_t>(stageCount());
    incam_assert(n_stages <=
                     static_cast<size_t>(ThreadPool::kMaxWorkers) + 1,
                 "pipeline needs ", n_stages,
                 " concurrent stages but the thread pool caps at ",
                 ThreadPool::kMaxWorkers + 1, " participants");
    beginRun();
    // Every stage loop is one chunk of a single fork-join job with one
    // participant per stage, so all loops run concurrently; a stage
    // blocked on a queue simply sleeps in its chunk.
    ThreadPool::global().run(
        static_cast<uint64_t>(n_stages), static_cast<int>(n_stages),
        [&](uint64_t c) { runStage(static_cast<int>(c)); });
    return finishRun();
}

StreamingPipeline::SourceStep
StreamingPipeline::nextFrame(Frame &f)
{
    incam_assert(rs != nullptr,
                 "beginEventRun() must precede nextFrame()");
    if (rs->next_id >= opts.frames || pastDeadline()) {
        return SourceStep::Done;
    }
    const int64_t id = rs->next_id++;
    f = makeSourceFrame(id, rs->source_pacer);
    if (injector != nullptr &&
        injector->cameraDown(fault_camera, f.trace_time)) {
        ++rs->state[0].dropped; // crash window: see sourceLoop
        if (ob.recorder != nullptr) {
            obsRecord(obs::EventKind::Crash, f.id, obsT(f, f.emit_s),
                      0.0, obs::kTidSource, obsSeq(kSiteCrash), 0, 0,
                      0.0);
        }
        if (oh.frames_dropped != nullptr) {
            oh.frames_dropped->add(1.0);
        }
        return SourceStep::Skipped;
    }
    ++rs->state[0].out;
    for (size_t b = 0; b < specs.size(); ++b) {
        if (!processBlockFrame(b, f, rs->stage_pacers[b],
                               rs->pacer_epochs[b],
                               rs->pass_credits[b])) {
            return SourceStep::Skipped;
        }
        ++rs->state[b + 1].out;
    }
    return SourceStep::Emitted;
}

int64_t
StreamingPipeline::nextSourceId() const
{
    incam_assert(rs != nullptr, "no run in progress");
    return rs->next_id;
}

RuntimeReport
StreamingPipeline::run(const RunOptions &options)
{
    if (options.obs.active() && !ob.active()) {
        setObs(options.obs); // solo run: camera 0, unlabeled
    }
    switch (options.mode) {
      case ExecutionMode::ThreadedStages:
        if (options.clock != nullptr) {
            setClock(options.clock);
        }
        return runThreaded();
      case ExecutionMode::Inline:
        if (options.clock != nullptr) {
            setClock(options.clock);
        }
        return runInline();
      case ExecutionMode::ThreadPerCamera:
        incam_panic("ThreadPerCamera is a fleet shape: each camera "
                    "pipeline runs Inline on a pool thread — use "
                    "CameraFleet::run");
      case ExecutionMode::DiscreteEvent: {
        // Solo discrete-event execution *is* the inline loop on a
        // self-owned model clock: the serial chain's own sleeps
        // advance virtual time, so the run completes at memory speed
        // with bit-identical accounting.
        incam_assert(options.clock == nullptr,
                     "DiscreteEvent owns its clock; inject one via "
                     "ExecutionMode::Inline instead");
        sim::VirtualClock vclock;
        setClock(&vclock);
        try {
            RuntimeReport rep = runInline();
            clk = &sim::WallClock::shared(); // vclock dies here
            return rep;
        } catch (...) {
            clk = &sim::WallClock::shared();
            throw;
        }
      }
    }
    incam_panic("unknown ExecutionMode");
}

RuntimeReport
StreamingPipeline::run()
{
    RunOptions ro;
    ro.mode = ExecutionMode::ThreadedStages;
    return run(ro);
}

RuntimeReport
StreamingPipeline::runInline()
{
    initRun(); // no queues: the chain runs as one serial loop
    openLink();

    // One loop drives each frame through the whole chain, reusing the
    // per-frame stage bodies of the threaded shape. The buckets all
    // refill against shared clock time while the loop sleeps in any
    // one of them, so the steady-state rate is still the min over
    // stage/link rates, exactly as with one thread per stage — only
    // pipeline-fill latency (which measured_fps already excises)
    // differs. The discrete-event engine replays these same steps
    // from its event loop, which is why the two shapes are
    // bit-identical by construction.
    try {
        Frame f;
        for (;;) {
            const SourceStep step = nextFrame(f);
            if (step == SourceStep::Done) {
                break;
            }
            if (step == SourceStep::Skipped) {
                continue;
            }
            deliverFrame(f);
        }
    } catch (...) {
        // A dead camera must not leave a ghost endpoint competing for
        // the shared link its siblings are still using.
        rs->link->release(rs->endpoint);
        throw;
    }
    rs->link->release(rs->endpoint);
    return finishRun();
}

RuntimeReport
StreamingPipeline::finishRun()
{
    incam_assert(rs != nullptr, "no run to finish");
    // The stage threads have joined by now, but the read still takes
    // error_mu: the analysis has no join-order notion, and the lock is
    // uncontended here anyway.
    std::exception_ptr err;
    {
        MutexLock lk(rs->error_mu);
        err = rs->first_error;
    }
    if (err) {
        rs.reset();
        std::rethrow_exception(err);
    }

    RuntimeReport rep;
    rep.config = cfg.toString(pipe);
    const RunState::StageState &src = rs->state[0];
    // Offered = every frame the source clocked out, whether it was
    // forwarded, lost to a crash window, or rejected by a closing
    // queue — the ledger's anchor count.
    rep.source_frames = src.out + src.dropped + src.shutdown_dropped;
    const RunState::StageState &sink = rs->state.back();
    rep.delivered_frames = sink.out;
    const double end =
        sink.delivered_any ? sink.last_delivery : clk->now();
    rep.wall_seconds = end - rs->run_start;
    if (sink.out >= 2) {
        rep.measured_fps =
            static_cast<double>(sink.out - 1) /
            (sink.last_delivery - sink.first_delivery);
    } else if (rep.wall_seconds > 0.0) {
        rep.measured_fps =
            static_cast<double>(sink.out) / rep.wall_seconds;
    }
    rep.model_fps = rep.measured_fps * opts.time_scale;

    const int n_epochs = epoch_count.load(std::memory_order_acquire);
    for (size_t b = 0; b < specs.size(); ++b) {
        const RunState::StageState &st = rs->state[b + 1];
        StageReport sr;
        // Label with the implementation the block actually ran on —
        // or "(mixed)" when an adaptive run moved the block between
        // implementations, so this one report row aggregates both.
        sr.name = specs[b].name;
        for (int e = 0; e < n_epochs; ++e) {
            const BlockPlan &plan =
                epochs[static_cast<size_t>(e)].plans[b];
            if (!plan.active) {
                continue;
            }
            if (sr.name == specs[b].name) {
                sr.name = plan.stage_name;
            } else if (sr.name != plan.stage_name) {
                sr.name = specs[b].name + "(mixed)";
                break;
            }
        }
        sr.frames_in = st.in;
        sr.frames_out = st.out;
        sr.frames_dropped = st.dropped;
        rep.ledger.dropped_fault += st.fault_dropped;
        rep.ledger.dropped_gated += st.dropped - st.fault_dropped;
        rep.ledger.dropped_shutdown += st.shutdown_dropped;
        rep.ledger.stage_retries += st.retries;
        sr.busy_seconds = st.busy_seconds;
        sr.occupancy = rep.wall_seconds > 0.0
                           ? st.busy_seconds / rep.wall_seconds
                           : 0.0;
        sr.peak_queue_depth =
            rs->queues.empty() ? 0 : rs->queues[b]->peakDepth();
        sr.energy = st.energy;
        rep.compute_energy += st.energy;
        rep.stages.push_back(std::move(sr));
    }

    rep.link.frames_sent = rs->lc.delivered_remote;
    rep.link.bytes_sent = sink.bytes_sent;
    rep.link.energy = sink.energy;
    rep.link.peak_queue_depth =
        rs->queues.empty() ? 0 : rs->queues.back()->peakDepth();
    const double link_capacity =
        net.goodput().bytesPerSecond() / opts.time_scale *
        rep.wall_seconds;
    rep.link.utilization =
        link_capacity > 0.0 ? sink.bytes_sent.b() / link_capacity : 0.0;
    rep.comm_energy = sink.energy;
    if (rep.source_frames > 0) {
        rep.joules_per_frame =
            rep.total_energy() / static_cast<double>(rep.source_frames);
    }

    // Log-bucketed percentiles: within one bucket width (~4.4%) of
    // the exact nearest-rank value, at O(buckets) memory.
    rep.latency_p50 =
        rs->latency_hist.percentile(0.50) / opts.time_scale;
    rep.latency_p95 =
        rs->latency_hist.percentile(0.95) / opts.time_scale;
    rep.latency_p99 =
        rs->latency_hist.percentile(0.99) / opts.time_scale;
    rep.reconfigurations =
        epoch_count.load(std::memory_order_acquire) - 1;

    // The loss ledger: every offered frame accounted to one fate.
    const RunState::LinkCounters &lc = rs->lc;
    LossLedger &lg = rep.ledger;
    lg.offered = rep.source_frames;
    lg.delivered_remote = lc.delivered_remote;
    lg.delivered_local = lc.delivered_local;
    lg.delivered = lc.delivered_remote + lc.delivered_local;
    lg.dropped_source = src.dropped;
    lg.dropped_link = sink.dropped;
    lg.dropped_shutdown += src.shutdown_dropped;
    lg.dropped = lg.dropped_gated + lg.dropped_source +
                 lg.dropped_link + lg.dropped_fault +
                 lg.dropped_shutdown;
    lg.retried_frames = lc.retried_frames;
    lg.tx_attempts = lc.attempts;
    lg.tx_losses = lc.losses;
    lg.probe_attempts = lc.probes;
    lg.probe_successes = lc.probe_ok;
    lg.retry_bytes = lc.retry_bytes;
    lg.retry_energy = lc.retry_energy;
    lg.backoff_seconds = lc.backoff_s;
    // Goodput after loss over the run's model-time span: the frame
    // clock's when one exists (deterministic), wall time otherwise.
    const double model_seconds =
        opts.trace_fps > 0.0
            ? static_cast<double>(lg.offered) / opts.trace_fps
            : rep.wall_seconds / opts.time_scale;
    if (model_seconds > 0.0) {
        lg.goodput_after_loss_bps =
            lc.delivered_payload.totalBits() / model_seconds;
    }
    if (injector != nullptr && opts.trace_fps > 0.0) {
        lg.blackout_seconds =
            injector->plan().blackoutSecondsWithin(
                0.0, static_cast<double>(lg.offered) / opts.trace_fps);
    }
    incam_assert(lg.consistent(),
                 "loss ledger out of balance: offered ", lg.offered,
                 " != delivered ", lg.delivered, " (", lg.delivered_remote,
                 " remote + ", lg.delivered_local, " local) + dropped ",
                 lg.dropped, " (", lg.dropped_gated, " gated + ",
                 lg.dropped_source, " source + ", lg.dropped_link,
                 " link + ", lg.dropped_fault, " fault + ",
                 lg.dropped_shutdown, " shutdown)");

    rs.reset();
    return rep;
}

} // namespace incam
