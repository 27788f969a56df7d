/**
 * @file
 * The two fleet workloads and the paced-DES retry probe.
 *
 * fleet_des: the 100k-camera WISPCam swarm at gateway scale in the
 * DiscreteEvent shape — bench_fleet's two FA geometries at cut 2,
 * ungated, on one paced backscatter uplink under Gilbert-Elliott fading
 * and per-attempt loss with bounded *immediate* retries. No kernels
 * run: the scheduler, SimLink and the runtime's per-frame steps do all
 * the work, and the per-camera state is far larger than any cache.
 * Retries are immediate because the engine aborts on a paced fleet with
 * non-zero retry waits (runPacedDesProbe reproduces it); fleet_des
 * moves to the standard retry policy once the engine is fixed.
 *
 * fleet_threads: the same per-frame steps on the wall clock — four
 * cameras in the ThreadPerCamera shape, counting mode on a frame
 * clock, mixed cuts, ungated, with a Gilbert-Elliott fading Wi-Fi trace
 * so DynamicLink drives SharedLink, and the same loss plan under the
 * standard retry policy. The wall-clock arbiters' locks do most of the
 * work; no other workload reaches them.
 */

#include <cstdio>
#include <string>

#include "core/network.hh"
#include "exec/thread_pool.hh"
#include "fa/scenario.hh"
#include "fault/fault.hh"
#include "fleet/fleet.hh"
#include "harness.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "trace/trace.hh"

using namespace incam;

namespace perfbench {
namespace {

constexpr int kDesCameras = 100000;
constexpr int64_t kDesFrames = 10;
/** Host seconds of one fleet_des run and one fleet_threads run; an
 *  untraced invocation makes fixedRuns(--seconds, ...) of them. */
constexpr double kDesNominalRunS = 3.0;
constexpr double kThreadNominalRunS = 0.5;
/** fleet_des samples frame host latency on every 100th camera. */
constexpr int kDesLatencyStride = 100;
/** Cameras of the 1-frame fleet_des run that carries a MetricsRegistry. */
constexpr int kRegistryCameras = 2000;
/** Set-ups per untraced invocation; setup_s is their median. A
 *  fleet_threads set-up builds the fleets of all the invocation's runs
 *  (one takes microseconds); fleet_des builds one 100k-camera fleet at
 *  a time, as the five together would need 3 GB. */
constexpr int kDesSetupRepeats = 5;
constexpr int kThreadSetupRepeats = 11;
constexpr int kThreadCameras = 4;
constexpr int64_t kThreadFrames = 100000;       ///< per camera, per run
constexpr int64_t kTracedThreadFrames = 100000; ///< per camera, traced
constexpr double kFrameClockFps = 30.0;
constexpr double kTxLoss = 0.1;

/** Two retries after a 20 ms ACK timeout and 50 ms doubling backoff. */
DeliveryPolicy
standardRetries()
{
    DeliveryPolicy d;
    d.max_retries = 2;
    d.ack_timeout = 0.02;
    d.backoff_base = 0.05;
    return d;
}

/** Bounded retries with no wait: what paced DES can run today. */
DeliveryPolicy
immediateRetries()
{
    DeliveryPolicy d;
    d.max_retries = 2;
    return d;
}

/** A link faded to @p bw_div of its bandwidth at @p epb_mul energy/bit. */
NetworkLink
faded(const NetworkLink &good, double bw_div, double epb_mul)
{
    NetworkLink bad = good;
    bad.name = good.name + " (faded)";
    bad.bandwidth = good.bandwidth / bw_div;
    bad.energy_per_bit = good.energy_per_bit * epb_mul;
    return bad;
}

/**
 * Everything a fleet run needs, built before timing: the two FA
 * geometries, the fading trace, the fault oracle and the fleet. The
 * fleet points at the trace and the oracle, so they live here too.
 */
struct FleetInputs
{
    Pipeline fa_large = buildFaPipeline(nominalFaMeasurements());
    Pipeline fa_small = buildFaPipeline(nominalFaMeasurements(128, 96, 18));
    std::unique_ptr<NetworkTrace> trace;
    std::unique_ptr<FaultInjector> faults;
    std::unique_ptr<CameraFleet> fleet;
};

/** Host latency sampling: the last source step of one camera. */
struct TickLog
{
    double last = -1.0;
};

/** fleet_des inputs: @p frames per camera; latency ticks optional. */
std::unique_ptr<FleetInputs>
buildDesFleet(uint64_t seed, int cameras, int64_t frames,
              std::vector<TickLog> *ticks, std::vector<double> *latency)
{
    auto in = std::make_unique<FleetInputs>();
    const NetworkLink good = backscatterUplink();
    GilbertElliottParams ge;
    ge.p_good_to_bad = 0.10;
    ge.p_bad_to_good = 0.30;
    ge.step = Time::seconds(60.0);
    ge.duration = Time::seconds(3600.0);
    ge.seed = subSeed(seed, 3);
    in->trace = std::make_unique<NetworkTrace>(
        NetworkTrace::gilbertElliott(good, faded(good, 4.0, 4.0), ge));
    in->trace->setPeriodic(true);
    FaultPlan plan;
    plan.seed = subSeed(seed, 4);
    plan.tx_loss = kTxLoss;
    in->faults = std::make_unique<FaultInjector>(plan);

    FleetOptions fo;
    fo.policy = SharePolicy::Fair;
    fo.gating = GatingMode::None;
    fo.network_trace = in->trace.get();
    fo.faults = in->faults.get();
    fo.delivery = immediateRetries();
    fo.queue_capacity = 4;
    fo.epoch_capacity = 4; // never reconfigures; keeps 100k cameras light
    in->fleet = std::make_unique<CameraFleet>(good, fo);
    if (ticks) {
        ticks->assign(static_cast<size_t>(cameras / kDesLatencyStride + 1),
                      TickLog{});
    }
    for (int i = 0; i < cameras; ++i) {
        const Pipeline &p = i % 2 == 0 ? in->fa_large : in->fa_small;
        FleetCamera cam("wisp" + std::to_string(i), p,
                        PipelineConfig::full(p, Impl::Asic, 2));
        cam.frames = frames;
        if (ticks && i % kDesLatencyStride == 0) {
            // In this closed loop a camera's next source step follows
            // its previous frame's delivery, so the host time between
            // consecutive steps is that frame's host latency.
            TickLog *log =
                &(*ticks)[static_cast<size_t>(i / kDesLatencyStride)];
            cam.customize = [log, latency](StreamingPipeline &sp) {
                sp.setSourceTick([log, latency](int64_t) {
                    const double now = hostNow();
                    if (log->last >= 0.0) {
                        latency->push_back(now - log->last);
                    }
                    log->last = now;
                });
            };
        }
        in->fleet->addCamera(std::move(cam));
    }
    return in;
}

/** fleet_threads inputs: cameras [@p first, @p first + @p cameras) of
 *  the mixed-cut Wi-Fi fleet. */
std::unique_ptr<FleetInputs>
buildThreadFleet(uint64_t seed, int cameras, int64_t frames, int first = 0)
{
    auto in = std::make_unique<FleetInputs>();
    const NetworkLink good = wifiUplink();
    GilbertElliottParams ge;
    ge.p_good_to_bad = 0.15;
    ge.p_bad_to_good = 0.35;
    ge.step = Time::seconds(10.0);
    ge.duration = Time::seconds(600.0);
    ge.seed = subSeed(seed, 5);
    in->trace = std::make_unique<NetworkTrace>(
        NetworkTrace::gilbertElliott(good, faded(good, 8.0, 6.0), ge));
    in->trace->setPeriodic(true);
    FaultPlan plan;
    plan.seed = subSeed(seed, 4);
    plan.tx_loss = kTxLoss;
    in->faults = std::make_unique<FaultInjector>(plan);

    FleetOptions fo;
    fo.policy = SharePolicy::Fair;
    fo.gating = GatingMode::None;
    fo.pace_stages = false;
    fo.pace_link = false;
    fo.trace_fps = kFrameClockFps;
    fo.network_trace = in->trace.get();
    fo.faults = in->faults.get();
    fo.delivery = standardRetries();
    in->fleet = std::make_unique<CameraFleet>(good, fo);
    for (int i = first; i < first + cameras; ++i) {
        // Cuts 0..3: raw frame, motion output, face crop, verdict.
        const Pipeline &p = i % 2 == 0 ? in->fa_large : in->fa_small;
        FleetCamera cam("cam" + std::to_string(i), p,
                        PipelineConfig::full(p, Impl::Asic, i % 4));
        cam.frames = frames;
        in->fleet->addCamera(std::move(cam));
    }
    return in;
}

/** The deterministic statistics two runs of one fleet must share. */
struct FleetDigest
{
    LossLedger ledger;
    int64_t events = 0;
    double model_s = 0.0;
    double uplink_bytes = 0.0;
    double energy_j = 0.0;

    explicit FleetDigest(const FleetRunReport &r)
        : ledger(r.ledger), events(r.des_events), model_s(r.wall_seconds),
          uplink_bytes(r.uplink_bytes.b()), energy_j(r.total_energy.j())
    {
    }
};

bool
sameLedger(const LossLedger &a, const LossLedger &b)
{
    return a.offered == b.offered && a.delivered == b.delivered &&
           a.delivered_remote == b.delivered_remote &&
           a.delivered_local == b.delivered_local &&
           a.dropped == b.dropped && a.dropped_gated == b.dropped_gated &&
           a.dropped_source == b.dropped_source &&
           a.dropped_link == b.dropped_link &&
           a.dropped_fault == b.dropped_fault &&
           a.dropped_shutdown == b.dropped_shutdown &&
           a.retried_frames == b.retried_frames &&
           a.tx_attempts == b.tx_attempts && a.tx_losses == b.tx_losses &&
           a.stage_retries == b.stage_retries &&
           a.probe_attempts == b.probe_attempts &&
           a.probe_successes == b.probe_successes &&
           a.retry_bytes.b() == b.retry_bytes.b() &&
           a.retry_energy.j() == b.retry_energy.j() &&
           a.backoff_seconds == b.backoff_seconds;
}

void
printDigest(const char *what, const FleetDigest &d)
{
    const LossLedger &l = d.ledger;
    std::printf("%s: offered %lld, delivered %lld, link drops %lld, "
                "attempts %lld, losses %lld, retry bytes %.0f, events "
                "%lld, model %.6f s, uplink %.0f B, energy %.9g J\n",
                what, static_cast<long long>(l.offered),
                static_cast<long long>(l.delivered),
                static_cast<long long>(l.dropped_link),
                static_cast<long long>(l.tx_attempts),
                static_cast<long long>(l.tx_losses), l.retry_bytes.b(),
                static_cast<long long>(d.events), d.model_s,
                d.uplink_bytes, d.energy_j);
}

/** Per-layer counters shared by both fleet workloads. */
void
faultAndObsMetrics(const FleetRunReport &rep, double plain_s,
                   double traced_s, const obs::TraceRecorder &recorder,
                   size_t events, Result &res)
{
    const LossLedger &l = rep.ledger;
    res.metric("runtime.overhead_s", plain_s, "s");
    res.metric("runtime.offered", static_cast<double>(l.offered), "count");
    res.metric("runtime.delivered", static_cast<double>(l.delivered),
               "count");
    res.metric("fault.tx_attempts", static_cast<double>(l.tx_attempts),
               "count");
    res.metric("fault.tx_losses", static_cast<double>(l.tx_losses), "count");
    res.metric("fault.retry_bytes", l.retry_bytes.b(), "B");
    res.metric("fault.link_drops", static_cast<double>(l.dropped_link),
               "count");
    res.metric("obs.overhead_ratio", traced_s / plain_s, "ratio");
    res.metric("obs.events_recorded", static_cast<double>(events), "count");
    res.metric("obs.events_dropped", static_cast<double>(recorder.dropped()),
               "count");
}

/** Run a built fleet once; host seconds into @p host_s. */
FleetRunReport
runFleet(FleetInputs &in, ExecutionMode mode, double *host_s,
         const obs::ObsConfig &oc = {})
{
    RunOptions ro;
    ro.mode = mode;
    ro.obs = oc;
    const double t0 = hostNow();
    FleetRunReport rep = in.fleet->run(ro);
    *host_s = hostNow() - t0;
    return rep;
}

} // namespace

Result
runFleetDes(const Args &args)
{
    Result res;
    if (!args.trace) {
        std::vector<double> setups, rates, latency;
        std::vector<TickLog> ticks;
        latency.reserve(static_cast<size_t>(kDesCameras / kDesLatencyStride *
                                            kDesFrames * 4));
        double run_s = 0.0;
        int64_t offered = 0, drops = 0;
        std::unique_ptr<FleetDigest> first;
        bool repeat_ok = true, ledgers_ok = true;
        for (int i = 0; i < kDesSetupRepeats; ++i) {
            const double t0 = hostNow();
            buildDesFleet(args.seed, kDesCameras, kDesFrames, nullptr,
                          nullptr);
            setups.push_back(hostNow() - t0);
        }
        // At least two runs: the second is the same-seed repeat check.
        const int64_t reps = fixedRuns(args.seconds, kDesNominalRunS, 2);
        for (int64_t r = 0; r < reps; ++r) {
            auto in = buildDesFleet(args.seed, kDesCameras, kDesFrames,
                                    &ticks, &latency);
            double host_s = 0.0;
            const FleetRunReport rep =
                runFleet(*in, ExecutionMode::DiscreteEvent, &host_s);
            run_s += host_s;
            rates.push_back(static_cast<double>(rep.ledger.offered) / host_s);
            const FleetDigest d(rep);
            ledgers_ok = ledgers_ok && rep.ledger.consistent() &&
                         rep.ledger.offered == kDesCameras * kDesFrames;
            if (!first) {
                first = std::make_unique<FleetDigest>(d);
                printDigest("fleet_des", d);
            } else {
                repeat_ok = repeat_ok &&
                            sameLedger(d.ledger, first->ledger) &&
                            d.events == first->events &&
                            d.model_s == first->model_s &&
                            d.uplink_bytes == first->uplink_bytes &&
                            d.energy_j == first->energy_j;
            }
            offered += rep.ledger.offered;
            drops += rep.ledger.dropped_link;
        }
        res.check(ledgers_ok,
                  "fleet_des: ledger balances (offered == delivered + "
                  "dropped)");
        res.check(repeat_ok,
                  "fleet_des: same seed repeats ledger, events, model_s");
        res.attempted = offered;
        res.failed = drops;
        std::printf("fleet_des: %lld runs of %d cameras x %lld frames in "
                    "%.3f s host; latency from %zu sampled frames\n",
                    static_cast<long long>(reps), kDesCameras,
                    static_cast<long long>(kDesFrames), run_s,
                    latency.size());
        res.metric("frames_per_s", median(rates), "1/s");
        res.metric("frame_ms_p50", 1e3 * median(latency), "ms");
        res.metric("frame_ms_p99", 1e3 * nearestRank(latency, 0.99), "ms");
        res.metric("setup_s", median(setups), "s");
        res.metric("peak_rss_mb", peakRssMb(), "MB");
        return res;
    }

    // ---- traced run: per-layer metrics ----
    double one_s = 0.0, plain_s = 0.0, traced_s = 0.0;
    {
        auto in = buildDesFleet(args.seed, kDesCameras, 1, nullptr, nullptr);
        runFleet(*in, ExecutionMode::DiscreteEvent, &one_s);
    }
    FleetRunReport plain;
    {
        auto in = buildDesFleet(args.seed, kDesCameras, kDesFrames, nullptr,
                                nullptr);
        plain = runFleet(*in, ExecutionMode::DiscreteEvent, &plain_s);
    }
    // MetricsRegistry::findOrCreate scans every series, so registering
    // 100k cameras' series does not finish in a run: the full fleet is
    // traced with the recorder alone, and the registry's attach cost is
    // measured on the first kRegistryCameras cameras.
    double registry_s = 0.0;
    {
        obs::MetricsRegistry registry;
        obs::ObsConfig rc;
        rc.registry = &registry;
        auto in = buildDesFleet(args.seed, kRegistryCameras, 1, nullptr,
                                nullptr);
        runFleet(*in, ExecutionMode::DiscreteEvent, &registry_s, rc);
    }
    obs::TraceRecorder recorder(1u << 23);
    obs::ObsConfig oc;
    oc.recorder = &recorder;
    FleetRunReport traced;
    {
        auto in = buildDesFleet(args.seed, kDesCameras, kDesFrames, nullptr,
                                nullptr);
        traced = runFleet(*in, ExecutionMode::DiscreteEvent, &traced_s, oc);
    }
    const FleetDigest d(plain);
    printDigest("fleet_des", d);
    res.check(plain.ledger.consistent() &&
                  sameLedger(plain.ledger, traced.ledger) &&
                  plain.des_events == traced.des_events,
              "fleet_des: traced run repeats the untraced ledger");
    res.attempted = plain.ledger.offered;
    res.failed = plain.ledger.dropped_link;

    int64_t grants = 0;
    double wait_s = 0.0;
    for (const FleetCameraReport &c : plain.cameras) {
        grants += c.link.grants;
        wait_s += c.link.wait_seconds;
    }
    std::printf("fleet_des traced: host %.3f s (untraced %.3f s, 1-frame "
                "run %.3f s)\n",
                traced_s, plain_s, one_s);
    res.metric("sim.events", static_cast<double>(plain.des_events), "count");
    res.metric("sim.host_ns_per_event",
               1e9 * plain_s / static_cast<double>(plain.des_events), "ns");
    res.metric("sim.model_s", plain.wall_seconds, "s");
    res.metric("sim.per_camera_fixed_us", 1e6 * one_s / kDesCameras, "us");
    res.metric("sim.link_grants", static_cast<double>(grants), "count");
    res.metric("sim.link_wait_s", wait_s, "s");
    res.metric("obs.registry_attach_s", registry_s, "s");
    faultAndObsMetrics(plain, plain_s, traced_s, recorder,
                       recorder.sortedEvents().size(), res);
    return res;
}

Result
runFleetThreads(const Args &args)
{
    Result res;
    // Grow the lazily spawned exec pool to one worker per camera
    // before anything is timed.
    ThreadPool::global().run(kThreadCameras, kThreadCameras,
                             [](uint64_t) {});
    if (!args.trace) {
        std::vector<double> setups, rates, camera_frame_s;
        const int64_t reps = fixedRuns(args.seconds, kThreadNominalRunS, 1);
        std::vector<std::unique_ptr<FleetInputs>> fleets;
        for (int i = 0; i < kThreadSetupRepeats; ++i) {
            fleets.clear();
            const double t0 = hostNow();
            for (int64_t r = 0; r < reps; ++r) {
                fleets.push_back(buildThreadFleet(args.seed, kThreadCameras,
                                                  kThreadFrames));
            }
            setups.push_back(hostNow() - t0);
        }
        double run_s = 0.0;
        int64_t offered = 0, drops = 0;
        std::unique_ptr<FleetDigest> first;
        bool repeat_ok = true, ledgers_ok = true;
        for (const auto &in : fleets) {
            double host_s = 0.0;
            const FleetRunReport rep =
                runFleet(*in, ExecutionMode::ThreadPerCamera, &host_s);
            run_s += host_s;
            rates.push_back(static_cast<double>(rep.ledger.offered) / host_s);
            // One frame in flight per camera: a camera's host time per
            // frame is its mean source-to-delivery latency.
            for (const FleetCameraReport &c : rep.cameras) {
                camera_frame_s.push_back(
                    c.runtime.wall_seconds /
                    static_cast<double>(c.runtime.source_frames));
            }
            const FleetDigest d(rep);
            ledgers_ok = ledgers_ok && rep.ledger.consistent() &&
                         rep.ledger.offered == kThreadCameras * kThreadFrames;
            if (!first) {
                first = std::make_unique<FleetDigest>(d);
            } else {
                repeat_ok = repeat_ok &&
                            sameLedger(d.ledger, first->ledger) &&
                            d.uplink_bytes == first->uplink_bytes &&
                            d.energy_j == first->energy_j;
            }
            offered += rep.ledger.offered;
            drops += rep.ledger.dropped_link;
        }

        // The reference: a DiscreteEvent counting run of the same fleet.
        auto ref_in =
            buildThreadFleet(args.seed, kThreadCameras, kThreadFrames);
        double ref_s = 0.0;
        const FleetDigest ref(
            runFleet(*ref_in, ExecutionMode::DiscreteEvent, &ref_s));
        printDigest("fleet_threads", *first);
        printDigest("fleet_threads DES reference", ref);
        res.check(ledgers_ok,
                  "fleet_threads: ledger balances (offered == delivered + "
                  "dropped)");
        res.check(repeat_ok && sameLedger(first->ledger, ref.ledger) &&
                      first->uplink_bytes == ref.uplink_bytes &&
                      first->energy_j == ref.energy_j,
                  "fleet_threads: ledger, bytes, energy equal DES counting");
        res.attempted = offered;
        res.failed = drops;
        std::printf("fleet_threads: %lld runs of %d cameras x %lld frames "
                    "in %.3f s host\n",
                    static_cast<long long>(reps), kThreadCameras,
                    static_cast<long long>(kThreadFrames), run_s);
        res.metric("frames_per_s", median(rates), "1/s");
        res.metric("frame_ms_p50", 1e3 * median(camera_frame_s), "ms");
        res.metric("frame_ms_p99", 1e3 * nearestRank(camera_frame_s, 0.99),
                   "ms");
        res.metric("setup_s", median(setups), "s");
        res.metric("peak_rss_mb", peakRssMb(), "MB");
        return res;
    }

    // ---- traced run: per-layer metrics ----
    // CPU per frame of the 4-camera fleet against each of its cameras
    // run alone: the ratio is what sharing the arbiter costs.
    double solo_cpu_s = 0.0, solo_s = 0.0, plain_s = 0.0, traced_s = 0.0;
    int64_t solo_frames = 0;
    for (int i = 0; i < kThreadCameras; ++i) {
        auto in = buildThreadFleet(args.seed, 1, kTracedThreadFrames, i);
        const double c0 = cpuNow();
        double host_s = 0.0;
        const FleetRunReport rep =
            runFleet(*in, ExecutionMode::ThreadPerCamera, &host_s);
        solo_cpu_s += cpuNow() - c0;
        solo_s += host_s;
        solo_frames += rep.ledger.offered;
    }
    auto plain_in =
        buildThreadFleet(args.seed, kThreadCameras, kTracedThreadFrames);
    const double c0 = cpuNow();
    const FleetRunReport plain =
        runFleet(*plain_in, ExecutionMode::ThreadPerCamera, &plain_s);
    const double fleet_cpu = 1e6 * (cpuNow() - c0) /
                             static_cast<double>(plain.ledger.offered);
    const double solo_cpu =
        1e6 * solo_cpu_s / static_cast<double>(solo_frames);

    obs::TraceRecorder recorder(1u << 20);
    obs::MetricsRegistry registry;
    obs::ObsConfig oc;
    oc.recorder = &recorder;
    oc.registry = &registry;
    auto in = buildThreadFleet(args.seed, kThreadCameras, kTracedThreadFrames);
    const FleetRunReport traced =
        runFleet(*in, ExecutionMode::ThreadPerCamera, &traced_s, oc);
    res.check(plain.ledger.consistent() &&
                  sameLedger(plain.ledger, traced.ledger),
              "fleet_threads: traced run repeats the untraced ledger");
    res.attempted = plain.ledger.offered;
    res.failed = plain.ledger.dropped_link;

    const std::vector<obs::TraceEvent> events = recorder.sortedEvents();
    std::vector<double> deliver_us;
    for (const obs::TraceEvent &ev : events) {
        if (ev.kind == obs::EventKind::Deliver) {
            deliver_us.push_back(1e6 * ev.dur);
        }
    }
    std::printf("fleet_threads traced: host %.3f s (untraced %.3f s, "
                "cameras alone %.3f s); %zu deliveries traced\n",
                traced_s, plain_s, solo_s, deliver_us.size());
    res.metric("fleet.cpu_us_per_frame", fleet_cpu, "us");
    res.metric("fleet.contention_ratio", fleet_cpu / solo_cpu, "ratio");
    res.metric("uplink.deliver_us_p50",
               deliver_us.empty() ? 0.0 : median(deliver_us), "us");
    res.metric("uplink.deliver_us_p99",
               deliver_us.empty() ? 0.0 : nearestRank(deliver_us, 0.99),
               "us");
    faultAndObsMetrics(plain, plain_s, traced_s, recorder, events.size(),
                       res);
    return res;
}

int
runPacedDesProbe()
{
    // 64 cameras x 20 frames, cut 2, ungated, paced backscatter,
    // FaultPlan{seed 5, tx_loss 0.1} under the standard retry policy.
    constexpr int kCameras = 64;
    constexpr int64_t kFrames = 20;
    const Pipeline fa_large = buildFaPipeline(nominalFaMeasurements());
    const Pipeline fa_small =
        buildFaPipeline(nominalFaMeasurements(128, 96, 18));
    FaultPlan plan;
    plan.seed = 5;
    plan.tx_loss = kTxLoss;
    const FaultInjector faults(plan);
    FleetOptions fo;
    fo.gating = GatingMode::None;
    fo.faults = &faults;
    fo.delivery = standardRetries();
    CameraFleet fleet(backscatterUplink(), fo);
    for (int i = 0; i < kCameras; ++i) {
        const Pipeline &p = i % 2 == 0 ? fa_large : fa_small;
        FleetCamera cam("wisp" + std::to_string(i), p,
                        PipelineConfig::full(p, Impl::Asic, 2));
        cam.frames = kFrames;
        fleet.addCamera(std::move(cam));
    }
    std::printf("{\"frames\": %lld}\n",
                static_cast<long long>(kCameras * kFrames));
    std::fflush(stdout);
    RunOptions ro;
    ro.mode = ExecutionMode::DiscreteEvent;
    const FleetRunReport rep = fleet.run(ro);
    std::printf("{\"frames\": %lld, \"offered\": %lld, \"delivered\": "
                "%lld, \"link_drops\": %lld}\n",
                static_cast<long long>(kCameras * kFrames),
                static_cast<long long>(rep.ledger.offered),
                static_cast<long long>(rep.ledger.delivered),
                static_cast<long long>(rep.ledger.dropped_link));
    return rep.ledger.consistent() ? 0 : 1;
}

} // namespace perfbench
