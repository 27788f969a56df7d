/**
 * @file
 * Tests for the adaptive layer: lossless mid-run reconfiguration of
 * the streaming runtime, the condition estimator's filter math, the
 * controller's switch/hysteresis behaviour and its bit-deterministic
 * decision sequences, SharedLink shares across a trace's capacity
 * step, and fleet-wide adaptation.
 *
 * Count and energy assertions are exact arithmetic (frames stamped
 * with their epoch at the source make switches deterministic); the
 * only timing-sensitive test is the SharedLink capacity-step one,
 * which asserts relative progress like the test_fleet share tests —
 * robust under the sanitizer CI matrix that runs this binary at
 * INCAM_THREADS = 1, 2 and 8.
 */

#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "adapt/controller.hh"
#include "adapt/estimator.hh"
#include "core/network.hh"
#include "fault/fault.hh"
#include "fleet/fleet.hh"
#include "runtime/runtime.hh"
#include "runtime/uplink.hh"
#include "trace/trace.hh"

namespace incam {
namespace {

NetworkLink
radioLink(const std::string &name, double bytes_per_sec,
          double nj_per_bit)
{
    NetworkLink l;
    l.name = name;
    l.bandwidth = Bandwidth::bytesPerSec(bytes_per_sec);
    l.energy_per_bit = Energy::nanojoules(nj_per_bit);
    return l;
}

/**
 * A one-block pipeline with a clean offload crossover: streaming the
 * raw 1000-byte frame costs 8000 x e/bit; computing in camera costs
 * 50 uJ and ships 100 bytes (800 x e/bit). Below ~6 nJ/bit the raw
 * stream wins MinEnergy; above it the in-camera cut wins.
 */
Pipeline
offloadablePipeline()
{
    Pipeline p("offloadable", DataSize::bytes(1000));
    Block reduce("Reduce", /*optional=*/false, DataSize::bytes(100));
    reduce.addImpl(Impl::Asic,
                   {Time::milliseconds(5), Energy::microjoules(50)});
    p.add(reduce);
    return p;
}

/** Two-impl block for epoch implementation-switch accounting. */
Pipeline
dualImplPipeline()
{
    Pipeline p("dual", DataSize::bytes(500));
    Block score("Score", /*optional=*/false, DataSize::bytes(10));
    score.addImpl(Impl::Asic,
                  {Time::microseconds(20), Energy::microjoules(0.5)});
    score.addImpl(Impl::Mcu,
                  {Time::milliseconds(2), Energy::microjoules(40.0)});
    p.add(score);
    return p;
}

RuntimeOptions
countingOptions(int64_t frames)
{
    RuntimeOptions o;
    o.frames = frames;
    o.gating = GatingMode::None;
    o.pace_stages = false;
    o.pace_link = false;
    return o;
}

// ---------------------------------------------------------------------
// Mid-run reconfiguration of the streaming runtime
// ---------------------------------------------------------------------

TEST(Reconfigure, CutSwitchIsLosslessAndByteExact)
{
    const Pipeline pipe = offloadablePipeline();
    const int64_t frames = 240, flip_at = 100;
    RuntimeOptions opts = countingOptions(frames);
    opts.queue_capacity = 2; // frames in flight across the switch
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         radioLink("cheap", 1e6, 1.0), opts);
    sp.setSourceTick([&](int64_t id) {
        if (id == flip_at) {
            sp.reconfigure(PipelineConfig::full(pipe, Impl::Asic, 1));
        }
    });
    const RuntimeReport rep = sp.run();

    // Nothing lost, nothing duplicated across the switch.
    EXPECT_EQ(rep.source_frames, frames);
    EXPECT_EQ(rep.delivered_frames, frames);
    EXPECT_EQ(rep.reconfigurations, 1);
    // Frames before the flip crossed raw (1000 B), after it reduced
    // (100 B) — stamped at the source, so the split is exact.
    EXPECT_DOUBLE_EQ(rep.link.bytes_sent.b(),
                     1000.0 * flip_at + 100.0 * (frames - flip_at));
    // Compute energy likewise: only post-flip frames ran the block.
    EXPECT_NEAR(rep.stages[0].energy.uj(), 50.0 * (frames - flip_at),
                1e-6);
}

TEST(Reconfigure, ImplSwitchRepricesExactly)
{
    const Pipeline pipe = dualImplPipeline();
    const int64_t frames = 200, flip_at = 60;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 1),
                         radioLink("l", 1e6, 1.0),
                         countingOptions(frames));
    sp.setSourceTick([&](int64_t id) {
        if (id == flip_at) {
            sp.reconfigure(PipelineConfig::full(pipe, Impl::Mcu, 1));
        }
    });
    const RuntimeReport rep = sp.run();
    EXPECT_EQ(rep.delivered_frames, frames);
    EXPECT_NEAR(rep.stages[0].energy.uj(),
                0.5 * flip_at + 40.0 * (frames - flip_at), 1e-6);
}

TEST(Reconfigure, GatedPipelineAccountsEveryFrameAcrossSwitches)
{
    // A filter pipeline under Model gating: across two cut switches,
    // delivered + dropped must still equal emitted.
    Pipeline p("gated", DataSize::kilobytes(1));
    Block gate("Gate", /*optional=*/true, DataSize::bytes(200));
    gate.setPassFraction(0.5);
    gate.addImpl(Impl::Asic, {Time{}, Energy::nanojoules(5)});
    p.add(gate);
    Block core("Core", /*optional=*/false, DataSize::bytes(20));
    core.addImpl(Impl::Asic, {Time{}, Energy::nanojoules(50)});
    p.add(core);

    const int64_t frames = 301;
    RuntimeOptions opts = countingOptions(frames);
    opts.gating = GatingMode::Model;
    opts.queue_capacity = 1;
    StreamingPipeline sp(p, PipelineConfig::full(p, Impl::Asic, 2),
                         radioLink("l", 1e6, 1.0), opts);
    sp.setSourceTick([&](int64_t id) {
        if (id == 100) {
            sp.reconfigure(PipelineConfig::full(p, Impl::Asic, 0));
        } else if (id == 200) {
            sp.reconfigure(PipelineConfig::full(p, Impl::Asic, 2));
        }
    });
    const RuntimeReport rep = sp.run();
    EXPECT_EQ(rep.source_frames, frames);
    EXPECT_EQ(rep.reconfigurations, 2);
    int64_t dropped = 0;
    for (const StageReport &st : rep.stages) {
        EXPECT_EQ(st.frames_in, st.frames_out + st.frames_dropped);
        dropped += st.frames_dropped;
    }
    EXPECT_EQ(rep.source_frames, rep.delivered_frames + dropped);
    // Cut 0 epochs bypass the gate entirely: the 100 middle frames
    // crossed raw; the flanking epochs gate at one half with the
    // Bresenham credit carrying across the inactive epoch — 50 of
    // the first 100 dropped, 51 of the last 101.
    EXPECT_EQ(dropped, 50 + 51);
}

TEST(Reconfigure, EpochTableHoldsManySwitches)
{
    const Pipeline pipe = offloadablePipeline();
    const int64_t frames = 100;
    RuntimeOptions opts = countingOptions(frames);
    opts.epoch_capacity = 128;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         radioLink("l", 1e6, 1.0), opts);
    // Flip the cut on every frame: the worst-case switch cadence the
    // table must absorb without losing a frame.
    sp.setSourceTick([&](int64_t id) {
        sp.reconfigure(
            PipelineConfig::full(pipe, Impl::Asic, id % 2 == 0 ? 1 : 0));
    });
    const RuntimeReport rep = sp.run();
    EXPECT_EQ(rep.delivered_frames, frames);
    EXPECT_EQ(rep.reconfigurations, frames);
    // Even frames computed (100 B), odd frames streamed raw (1000 B).
    EXPECT_DOUBLE_EQ(rep.link.bytes_sent.b(),
                     50.0 * 100.0 + 50.0 * 1000.0);
}

// ---------------------------------------------------------------------
// ConditionEstimator / TelemetrySampler
// ---------------------------------------------------------------------

TEST(Estimator, EwmaStepResponseMatchesHorizon)
{
    ConditionEstimator est(Time::seconds(1.0));
    ConditionSample s;
    s.goodput_bps = 0.0;
    est.observe(0.0, s);
    // Step to 1000 B/s, sampled every 0.1 s: the continuous-time EWMA
    // reaches 1 - e^-t of the step after t seconds, independent of
    // the sampling cadence.
    s.goodput_bps = 1000.0;
    for (double t = 0.1; t <= 3.0001; t += 0.1) {
        est.observe(t, s);
    }
    const NetworkLink base = radioLink("base", 1.0, 1.0);
    const double got =
        est.estimatedLink(base).bandwidth.bytesPerSecond();
    EXPECT_NEAR(got, 1000.0 * (1.0 - std::exp(-3.0)), 1.0);
    EXPECT_GT(got, 0.93 * 1000.0);
}

TEST(Estimator, UnobservedFieldsFallBackToBase)
{
    ConditionEstimator est(Time::seconds(1.0));
    const NetworkLink base = radioLink("base", 777.0, 3.0);
    EXPECT_FALSE(est.hasNetwork());
    EXPECT_DOUBLE_EQ(
        est.estimatedLink(base).bandwidth.bytesPerSecond(), 777.0);
    EXPECT_DOUBLE_EQ(est.motionPass(0.3), 0.3);

    ConditionSample s;
    s.energy_per_bit_j = 9e-9; // only the price observed
    est.observe(1.0, s);
    const NetworkLink l = est.estimatedLink(base);
    EXPECT_DOUBLE_EQ(l.bandwidth.bytesPerSecond(), 777.0);
    EXPECT_DOUBLE_EQ(l.energy_per_bit.nj(), 9.0);
}

TEST(Estimator, TelemetrySamplerComputesWindowDeltas)
{
    Telemetry probe;
    TelemetrySampler sampler(probe, /*time_scale=*/2.0);

    probe.bytes_sent.store(1000.0);
    probe.comm_energy_j.store(8e-6);
    probe.gate_in.store(10);
    probe.gate_pass.store(5);
    sampler.sample(0.0); // priming snapshot

    probe.bytes_sent.store(3000.0);
    probe.comm_energy_j.store(40e-6);
    probe.gate_in.store(110);
    probe.gate_pass.store(30);
    probe.latency_sum_s.store(4.0);
    probe.latency_count.store(8);
    const ConditionSample s = sampler.sample(4.0);
    EXPECT_DOUBLE_EQ(s.goodput_bps, 2000.0 / 4.0);
    EXPECT_DOUBLE_EQ(s.energy_per_bit_j, 32e-6 / (2000.0 * 8.0));
    EXPECT_DOUBLE_EQ(s.motion_pass, 25.0 / 100.0);
    // 0.5 s wall mean latency, halved into model time by time_scale.
    EXPECT_DOUBLE_EQ(s.latency_s, 0.25);

    // A window with no uplink traffic says nothing about the link.
    const ConditionSample quiet = sampler.sample(5.0);
    EXPECT_LT(quiet.goodput_bps, 0.0);
    EXPECT_LT(quiet.motion_pass, 0.0);
}

TEST(Estimator, FirstSampleInitializesExactly)
{
    // Cold-start pin: the first observation of a field *initializes*
    // its filter — it must not be decayed against the default-zero
    // state (which would make a mid-run first sample look like a
    // near-dead link for several horizons).
    ConditionEstimator est(Time::seconds(1.0));
    ConditionSample s;
    s.goodput_bps = 5000.0;
    s.loss_rate = 0.4;
    est.observe(100.0, s); // late first sample: no decay-from-zero
    const NetworkLink base = radioLink("base", 1.0, 1.0);
    EXPECT_DOUBLE_EQ(
        est.estimatedLink(base).bandwidth.bytesPerSecond(), 5000.0);
    EXPECT_DOUBLE_EQ(est.lossRate(0.0), 0.4);
}

TEST(Estimator, ResetNetworkForgetsLinkKeepsContent)
{
    ConditionEstimator est(Time::seconds(1.0));
    ConditionSample s;
    s.goodput_bps = 5000.0;
    s.energy_per_bit_j = 9e-9;
    s.loss_rate = 1.0;
    s.motion_pass = 0.25;
    est.observe(0.0, s);
    EXPECT_TRUE(est.hasNetwork());

    est.resetNetwork();
    // Network beliefs gone, content beliefs intact.
    EXPECT_FALSE(est.hasNetwork());
    EXPECT_DOUBLE_EQ(est.lossRate(0.0), 0.0);
    EXPECT_DOUBLE_EQ(est.motionPass(0.9), 0.25);
    const NetworkLink base = radioLink("base", 777.0, 3.0);
    EXPECT_DOUBLE_EQ(
        est.estimatedLink(base).bandwidth.bytesPerSecond(), 777.0);

    // The first post-reset sample cold-starts the filters: exact
    // adoption, no averaging against the dead link's state.
    ConditionSample after;
    after.goodput_bps = 123.0;
    after.loss_rate = 0.0;
    est.observe(50.0, after);
    EXPECT_DOUBLE_EQ(
        est.estimatedLink(base).bandwidth.bytesPerSecond(), 123.0);
    EXPECT_DOUBLE_EQ(est.lossRate(1.0), 0.0);
}

TEST(Estimator, TelemetrySamplerMeasuresLossRate)
{
    Telemetry probe;
    TelemetrySampler sampler(probe, /*time_scale=*/1.0);
    sampler.sample(0.0); // priming snapshot

    probe.tx_attempts.store(40);
    probe.tx_losses.store(10);
    const ConditionSample s = sampler.sample(1.0);
    EXPECT_DOUBLE_EQ(s.loss_rate, 0.25);

    // No attempts this window: loss is unobservable, not zero.
    const ConditionSample quiet = sampler.sample(2.0);
    EXPECT_LT(quiet.loss_rate, 0.0);

    probe.tx_attempts.store(50);
    probe.tx_losses.store(20);
    const ConditionSample burst = sampler.sample(3.0);
    EXPECT_DOUBLE_EQ(burst.loss_rate, 1.0); // 10 of 10 lost
}

TEST(Estimator, TelemetrySamplerMeasuresRetryAndBackoff)
{
    Telemetry probe;
    TelemetrySampler sampler(probe, /*time_scale=*/1.0);
    sampler.sample(0.0); // priming snapshot

    probe.tx_attempts.store(40);
    probe.retry_attempts.store(10);
    probe.backoff_seconds.store(0.5);
    const ConditionSample s = sampler.sample(2.0);
    // 10 of the 40 attempts this window were re-transmissions, and
    // 0.5 s of the 2 s window was spent backing off.
    EXPECT_DOUBLE_EQ(s.retry_rate, 0.25);
    EXPECT_DOUBLE_EQ(s.backoff_fraction, 0.25);

    // No attempts: retry pressure is unobservable, not zero; backoff
    // is a wall fraction, so a quiet window legitimately reads 0.
    const ConditionSample quiet = sampler.sample(3.0);
    EXPECT_LT(quiet.retry_rate, 0.0);
    EXPECT_DOUBLE_EQ(quiet.backoff_fraction, 0.0);
}

TEST(Estimator, FoldsRetryAndBackoffWithNetworkReset)
{
    ConditionEstimator est(Time::seconds(1.0));
    EXPECT_DOUBLE_EQ(est.retryRate(0.7), 0.7); // fallback pre-sample
    EXPECT_DOUBLE_EQ(est.backoffFraction(0.3), 0.3);

    ConditionSample s;
    s.retry_rate = 0.5;
    s.backoff_fraction = 0.2;
    est.observe(0.0, s);
    EXPECT_DOUBLE_EQ(est.retryRate(0.0), 0.5);
    EXPECT_DOUBLE_EQ(est.backoffFraction(0.0), 0.2);

    // Retry/backoff are network beliefs: a degrade->heal reset must
    // discard them with the rest of the dead link's state.
    est.resetNetwork();
    EXPECT_DOUBLE_EQ(est.retryRate(0.7), 0.7);
    EXPECT_DOUBLE_EQ(est.backoffFraction(0.3), 0.3);
}

TEST(Estimator, RunTelemetryExposesRetryPressure)
{
    // End to end: a lossy uplink with retries enabled leaves its
    // pressure in the probe — the counters TelemetrySampler reads.
    const Pipeline pipe = offloadablePipeline();
    FaultPlan plan;
    plan.seed = 5;
    plan.tx_loss = 0.4;
    const FaultInjector inj(plan);
    RuntimeOptions opts = countingOptions(120);
    opts.trace_fps = 4.0;
    opts.delivery.max_retries = 3;
    opts.delivery.ack_timeout = 0.02;
    opts.delivery.backoff_base = 0.05;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         radioLink("lossy", 1e6, 1.0), opts);
    sp.setFaultInjector(&inj);
    sp.run();

    const Telemetry &probe = sp.telemetry();
    const int64_t retries =
        probe.retry_attempts.load(std::memory_order_relaxed);
    EXPECT_GT(retries, 0);
    // Every retry is an attempt beyond a frame's first.
    EXPECT_EQ(probe.tx_attempts.load(std::memory_order_relaxed),
              probe.source_frames.load(std::memory_order_relaxed) +
                  retries);
    // Each loss cost one ack timeout plus a backoff wait.
    EXPECT_GT(probe.backoff_seconds.load(std::memory_order_relaxed),
              0.0);
}

// ---------------------------------------------------------------------
// AdaptiveController
// ---------------------------------------------------------------------

ControllerOptions
energyController(double trace_fps)
{
    ControllerOptions c;
    c.goal.kind = OptimizerGoal::Kind::MinEnergy;
    c.decision_period = 2.0;
    c.sample_period = 0.5;
    c.ewma_horizon = Time::seconds(1.0);
    c.hysteresis = 0.05;
    c.min_dwell = 1;
    c.trace_fps = trace_fps;
    return c;
}

TEST(AdaptiveController, SwitchesCutWhenTheRadioPriceSteps)
{
    const Pipeline pipe = offloadablePipeline();
    // Cheap radio for 30 s (raw streaming optimal), then a 50x price
    // hike (in-camera compute optimal).
    std::vector<LinkSegment> segs;
    segs.push_back({Time::seconds(0.0), radioLink("cheap", 1e6, 1.0)});
    segs.push_back({Time::seconds(30.0), radioLink("pricey", 1e6, 50.0)});
    const NetworkTrace trace = NetworkTrace::piecewise("step", segs);

    const double fps = 4.0;
    const int64_t frames = 240; // 60 trace-seconds
    RuntimeOptions opts = countingOptions(frames);
    opts.trace_fps = fps;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         trace.at(Time{}), opts);

    AdaptiveController ctl(pipe, trace.at(Time{}),
                           energyController(fps));
    ctl.useNetworkTrace(&trace);
    ctl.attach(sp);

    const RuntimeReport rep = sp.run();
    EXPECT_EQ(rep.delivered_frames, frames);
    EXPECT_EQ(ctl.switches(), 1);
    EXPECT_EQ(ctl.liveConfig().cut, 1);
    // The switch happened after the step, within the estimator lag
    // plus one decision period.
    for (const AdaptiveDecision &d : ctl.decisions()) {
        if (d.switched) {
            EXPECT_GE(d.t, 30.0);
            EXPECT_LT(d.t, 38.0);
        }
    }
    EXPECT_EQ(rep.reconfigurations, 1);
}

TEST(AdaptiveController, HysteresisBlocksMarginalFlapping)
{
    const Pipeline pipe = offloadablePipeline();
    // Alternate between two prices that differ by ~2% in total
    // energy — inside the 5% hysteresis band, so the controller must
    // hold its configuration.
    std::vector<LinkSegment> segs;
    for (int i = 0; i < 10; ++i) {
        segs.push_back({Time::seconds(4.0 * i),
                        radioLink(i % 2 == 0 ? "a" : "b", 1e6,
                                  i % 2 == 0 ? 1.00 : 1.02)});
    }
    const NetworkTrace trace = NetworkTrace::piecewise("flap", segs);

    const double fps = 4.0;
    RuntimeOptions opts = countingOptions(160); // 40 trace-seconds
    opts.trace_fps = fps;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         trace.at(Time{}), opts);
    AdaptiveController ctl(pipe, trace.at(Time{}),
                           energyController(fps));
    ctl.useNetworkTrace(&trace);
    ctl.attach(sp);
    sp.run();
    EXPECT_EQ(ctl.switches(), 0);
    EXPECT_EQ(ctl.liveConfig().cut, 0);
}

TEST(AdaptiveController, DecisionsAreBitDeterministic)
{
    const Pipeline pipe = offloadablePipeline();
    const NetworkTrace trace = NetworkTrace::gilbertElliott(
        radioLink("good", 1e6, 1.0), radioLink("bad", 2e4, 40.0),
        GilbertElliottParams{.p_good_to_bad = 0.10,
                             .p_bad_to_good = 0.25,
                             .step = Time::seconds(1.0),
                             .duration = Time::seconds(80.0),
                             .seed = 11});
    const double fps = 4.0;
    const int64_t frames = 320;

    auto run_once = [&](bool threaded) {
        RuntimeOptions opts = countingOptions(frames);
        opts.trace_fps = fps;
        StreamingPipeline sp(pipe, PipelineConfig::full(pipe),
                             trace.at(Time{}), opts);
        auto ctl = std::make_unique<AdaptiveController>(
            pipe, trace.at(Time{}), energyController(fps));
        ctl->useNetworkTrace(&trace);
        ctl->attach(sp);
        RunOptions ro;
        ro.mode = threaded ? ExecutionMode::ThreadedStages
                           : ExecutionMode::Inline;
        const RuntimeReport rep = sp.run(ro);
        return std::make_pair(std::move(ctl), rep.delivered_frames);
    };

    const auto [ctl_threaded, delivered_threaded] = run_once(true);
    const auto [ctl_inline, delivered_inline] = run_once(false);

    // Offline replay: the same decision sequence without any runtime.
    AdaptiveController replay(pipe, trace.at(Time{}),
                              energyController(fps));
    replay.useNetworkTrace(&trace);
    for (int64_t i = 0; i < frames; ++i) {
        replay.onFrame(i);
    }

    ASSERT_EQ(ctl_threaded->decisions().size(),
              ctl_inline->decisions().size());
    ASSERT_EQ(ctl_threaded->decisions().size(),
              replay.decisions().size());
    for (size_t i = 0; i < replay.decisions().size(); ++i) {
        const AdaptiveDecision &a = ctl_threaded->decisions()[i];
        const AdaptiveDecision &b = ctl_inline->decisions()[i];
        const AdaptiveDecision &c = replay.decisions()[i];
        EXPECT_EQ(a.t, b.t);
        EXPECT_EQ(a.chosen, b.chosen);
        EXPECT_EQ(a.switched, b.switched);
        EXPECT_EQ(a.objective, b.objective);
        EXPECT_EQ(a.chosen, c.chosen);
        EXPECT_EQ(a.switched, c.switched);
        EXPECT_EQ(a.objective, c.objective);
    }
    EXPECT_GE(ctl_threaded->switches(), 2);
    EXPECT_EQ(ctl_threaded->switches(), replay.switches());
    EXPECT_EQ(delivered_threaded, delivered_inline);
    EXPECT_EQ(delivered_threaded, frames); // gating off => lossless
}

// ---------------------------------------------------------------------
// SharedLink across a capacity step
// ---------------------------------------------------------------------

TEST(SharedLinkReconfig, SharesStayExactAcrossCapacityStep)
{
    // Two backlogged fair endpoints on a trace whose capacity drops 4x
    // at 30 ms, about when b's first 60 grants are through. The 1:1
    // split must hold on both sides of the step (relative progress,
    // like the test_fleet share tests — no absolute timing).
    const NetworkTrace trace = NetworkTrace::piecewise(
        "step", {{Time::seconds(0.0), radioLink("fast", 400e3, 1.0)},
                 {Time::seconds(0.03), radioLink("slow", 100e3, 1.0)}});
    SharedLink::Options opts;
    opts.policy = SharePolicy::Fair;
    opts.trace = &trace;
    SharedLink link(trace.at(Time{}), opts);
    const int a = link.addEndpoint("a");
    const int b = link.addEndpoint("b");
    link.start();

    std::atomic<int64_t> a_done{0};
    std::atomic<bool> stop{false};
    std::thread ta([&] {
        while (!stop.load()) {
            link.acquire(a, 100.0);
            a_done.fetch_add(1);
        }
        link.release(a);
    });
    const int64_t phase_grants = 60;
    for (int64_t i = 0; i < phase_grants; ++i) {
        link.acquire(b, 100.0);
    }
    const int64_t a_phase1 = a_done.load();
    for (int64_t i = 0; i < phase_grants; ++i) {
        link.acquire(b, 100.0);
    }
    const int64_t a_phase2 = a_done.load() - a_phase1;
    stop.store(true);
    link.release(b);
    ta.join();

    // Fair share held in both phases: a tracked b about 1:1.
    EXPECT_GT(a_phase1, phase_grants / 2);
    EXPECT_LT(a_phase1, phase_grants * 2);
    EXPECT_GT(a_phase2, phase_grants / 2);
    EXPECT_LT(a_phase2, phase_grants * 2);
    // The slow segment was in force: at 400 kB/s throughout, b's 120
    // grants would be through by 60 ms of trace time; the step makes
    // it 150 ms. Host delay only lengthens the run.
    EXPECT_GT(link.traceTime().sec(), 0.09);

    const auto rep = link.report();
    EXPECT_EQ(rep[static_cast<size_t>(b)].grants, 2 * phase_grants);
    EXPECT_DOUBLE_EQ(rep[static_cast<size_t>(b)].bytes.b(),
                     2.0 * phase_grants * 100.0);
}

// ---------------------------------------------------------------------
// Fleet-wide adaptation
// ---------------------------------------------------------------------

TEST(FleetAdaptive, ControllersReconfigureCamerasMidRun)
{
    const Pipeline pipe = offloadablePipeline();
    std::vector<LinkSegment> segs;
    segs.push_back({Time::seconds(0.0), radioLink("cheap", 1e6, 1.0)});
    segs.push_back(
        {Time::seconds(30.0), radioLink("pricey", 1e6, 50.0)});
    const NetworkTrace trace = NetworkTrace::piecewise("step", segs);

    const double fps = 4.0;
    const int64_t frames = 240;

    FleetOptions fopts;
    fopts.gating = GatingMode::None;
    fopts.pace_stages = false;
    fopts.pace_link = false;
    fopts.network_trace = &trace;
    fopts.trace_fps = fps;
    CameraFleet fleet(trace.at(Time{}), fopts);

    std::vector<FleetCameraModel> models;
    for (int i = 0; i < 2; ++i) {
        FleetCameraModel m;
        m.name = "cam" + std::to_string(i);
        m.pipeline = &pipe;
        m.config = PipelineConfig::full(pipe, Impl::Asic, 0);
        models.push_back(std::move(m));
    }
    FleetOptimizerGoal goal;
    goal.kind = FleetOptimizerGoal::Kind::MinTotalEnergy;
    FleetAdaptiveController ctl(models, trace.at(Time{}),
                                SharePolicy::Fair, goal,
                                energyController(fps));
    ctl.useNetworkTrace(&trace);

    for (int i = 0; i < 2; ++i) {
        FleetCamera cam("cam" + std::to_string(i), pipe,
                        PipelineConfig::full(pipe, Impl::Asic, 0));
        cam.frames = frames;
        cam.customize = [&ctl, i](StreamingPipeline &sp) {
            ctl.attachCamera(sp, static_cast<size_t>(i));
        };
        fleet.addCamera(std::move(cam));
    }

    RunOptions per_camera;
    per_camera.mode = ExecutionMode::ThreadPerCamera;
    const FleetRunReport rep = fleet.run(per_camera);
    EXPECT_EQ(ctl.switches(), 1);
    for (const FleetCameraReport &cam : rep.cameras) {
        // Lossless across the fleet-wide switch.
        EXPECT_EQ(cam.runtime.source_frames, frames);
        EXPECT_EQ(cam.runtime.delivered_frames, frames);
    }
    // The ticker camera's epochs are frame-exact: the switch landed
    // at its frame 120 (trace time 30 s), so 120 raw + 120 reduced.
    EXPECT_EQ(rep.cameras[0].runtime.reconfigurations, 1);
    EXPECT_DOUBLE_EQ(rep.cameras[0].runtime.link.bytes_sent.b(),
                     120.0 * 1000.0 + 120.0 * 100.0);
    // Its unpaced sibling races the switch — with a small thread pool
    // it may even finish before the ticker reaches the step, so any
    // split (including all-raw) is legal; every frame must still
    // price at one of the two representations.
    EXPECT_LE(rep.cameras[1].runtime.reconfigurations, 1);
    EXPECT_GE(rep.cameras[1].runtime.link.bytes_sent.b(),
              100.0 * frames);
    EXPECT_LE(rep.cameras[1].runtime.link.bytes_sent.b(),
              1000.0 * frames);
}

} // namespace
} // namespace incam
