/**
 * @file
 * Tests for the fault-injection layer and lossy-link recovery: plan
 * and injector determinism, the closed-form delivery model, exact
 * retry/blackout/crash/stage-fault accounting in the loss ledger,
 * agreement of the ledger across execution shapes, and the adaptive
 * controller's degrade-to-local / heal state machine on both a solo
 * pipeline and an eight-camera fleet.
 *
 * Every assertion is exact arithmetic on counts drawn from the
 * deterministic fault oracle (counter-based hash draws on the frame
 * clock), so the suite is immune to host load and thread count — the
 * sanitizer CI matrix runs this binary under TSan at INCAM_THREADS =
 * 1, 2 and 8 and the ledgers must not move.
 */

#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "adapt/controller.hh"
#include "adapt/estimator.hh"
#include "fault/fault.hh"
#include "fault/loss_model.hh"
#include "fleet/fleet.hh"
#include "runtime/runtime.hh"
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

/** One-block pipeline; cut 0 streams the raw 1000-byte frame, cut 1
 *  computes in camera (50 uJ) and ships 100 bytes. Same crossover as
 *  the adaptive tests: cheap radio -> cut 0 optimal, zero-offload is
 *  cut 1. */
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

ControllerOptions
degradeController(double trace_fps)
{
    ControllerOptions c;
    c.goal.kind = OptimizerGoal::Kind::MinEnergy;
    c.decision_period = 2.0;
    c.sample_period = 0.5;
    c.ewma_horizon = Time::seconds(1.0);
    c.hysteresis = 0.05;
    c.min_dwell = 1;
    c.trace_fps = trace_fps;
    c.degrade_loss_threshold = 0.9;
    c.restore_loss_threshold = 0.2;
    return c;
}

// ---------------------------------------------------------------------
// FaultPlan / FaultInjector
// ---------------------------------------------------------------------

TEST(FaultPlan, LossFollowsScheduleAndBlackouts)
{
    FaultPlan plan;
    plan.tx_loss = 0.1;
    plan.loss_schedule = {{Time::seconds(0.0), 0.05},
                          {Time::seconds(10.0), 0.5}};
    plan.blackouts = {{Time::seconds(12.0), Time::seconds(3.0)}};

    // Schedule wins over the stationary rate once a clock exists.
    EXPECT_DOUBLE_EQ(plan.lossAt(0.0), 0.05);
    EXPECT_DOUBLE_EQ(plan.lossAt(9.999), 0.05);
    EXPECT_DOUBLE_EQ(plan.lossAt(10.0), 0.5);
    // Blackouts override everything inside [start, start+duration).
    EXPECT_DOUBLE_EQ(plan.lossAt(12.0), 1.0);
    EXPECT_DOUBLE_EQ(plan.lossAt(14.999), 1.0);
    EXPECT_DOUBLE_EQ(plan.lossAt(15.0), 0.5);
    EXPECT_TRUE(plan.inBlackout(13.0));
    EXPECT_FALSE(plan.inBlackout(15.0));
    // Clockless frames see only the stationary rate.
    EXPECT_DOUBLE_EQ(plan.lossAt(-1.0), 0.1);
    // Exact overlap accounting, clipped to the query window.
    EXPECT_DOUBLE_EQ(plan.blackoutSecondsWithin(0.0, 60.0), 3.0);
    EXPECT_DOUBLE_EQ(plan.blackoutSecondsWithin(13.0, 14.0), 1.0);
    EXPECT_DOUBLE_EQ(plan.blackoutSecondsWithin(20.0, 60.0), 0.0);
    EXPECT_FALSE(plan.empty());
    EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultPlan, GilbertElliottScheduleIsDeterministic)
{
    GilbertElliottParams ge;
    ge.p_good_to_bad = 0.2;
    ge.p_bad_to_good = 0.4;
    ge.step = Time::seconds(1.0);
    ge.duration = Time::seconds(200.0);
    ge.seed = 7;
    const auto a = FaultPlan::gilbertElliottLoss(0.02, 0.6, ge);
    const auto b = FaultPlan::gilbertElliottLoss(0.02, 0.6, ge);

    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    EXPECT_DOUBLE_EQ(a.front().start.sec(), 0.0);
    bool saw_good = false, saw_bad = false;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].start.sec(), b[i].start.sec());
        EXPECT_DOUBLE_EQ(a[i].loss, b[i].loss);
        EXPECT_TRUE(a[i].loss == 0.02 || a[i].loss == 0.6);
        saw_good = saw_good || a[i].loss == 0.02;
        saw_bad = saw_bad || a[i].loss == 0.6;
        if (i > 0) {
            EXPECT_GT(a[i].start.sec(), a[i - 1].start.sec());
            EXPECT_NE(a[i].loss, a[i - 1].loss); // runs are merged
        }
    }
    EXPECT_TRUE(saw_good && saw_bad);
}

TEST(FaultInjector, DrawsAreDeterministicWithHonestFrequency)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.tx_loss = 0.3;
    const FaultInjector inj(plan);
    const FaultInjector twin(plan);

    const int64_t n = 10000;
    int64_t lost = 0;
    bool attempts_differ = false, cameras_differ = false;
    for (int64_t f = 0; f < n; ++f) {
        const bool l = inj.txLost(0, f, 0, -1.0);
        EXPECT_EQ(l, twin.txLost(0, f, 0, -1.0));
        lost += l ? 1 : 0;
        // Retries genuinely re-roll; cameras draw independently.
        attempts_differ =
            attempts_differ || l != inj.txLost(0, f, 1, -1.0);
        cameras_differ =
            cameras_differ || l != inj.txLost(1, f, 0, -1.0);
    }
    EXPECT_NEAR(static_cast<double>(lost) / n, 0.3, 0.02);
    EXPECT_TRUE(attempts_differ);
    EXPECT_TRUE(cameras_differ);

    // Degenerate probabilities are exact, not sampled.
    FaultPlan sure;
    sure.tx_loss = 1.0;
    FaultPlan never;
    never.tx_loss = 0.0;
    for (int64_t f = 0; f < 100; ++f) {
        EXPECT_TRUE(FaultInjector(sure).txLost(0, f, 0, -1.0));
        EXPECT_FALSE(FaultInjector(never).txLost(0, f, 0, -1.0));
    }

    // A different seed is a different universe.
    FaultPlan reseeded = plan;
    reseeded.seed = 43;
    const FaultInjector other(reseeded);
    bool any_diff = false;
    for (int64_t f = 0; f < 200 && !any_diff; ++f) {
        any_diff = inj.txLost(0, f, 0, -1.0) !=
                   other.txLost(0, f, 0, -1.0);
    }
    EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------
// Closed-form delivery model
// ---------------------------------------------------------------------

TEST(LossModel, ClosedFormsMatchTheirDefinitions)
{
    DeliveryModelPolicy pol;
    pol.max_retries = 3;
    pol.ack_timeout = 0.05;
    pol.backoff_base = 0.1;

    // Lossless: one attempt, certain delivery, no waiting.
    const DeliveryModel clean = expectedDelivery(0.0, pol);
    EXPECT_DOUBLE_EQ(clean.p_delivered, 1.0);
    EXPECT_DOUBLE_EQ(clean.expected_attempts, 1.0);
    EXPECT_DOUBLE_EQ(clean.expected_wait_s, 0.0);

    // Total loss: the full budget is always spent and never delivers;
    // every inter-attempt wait is paid.
    const DeliveryModel dead = expectedDelivery(1.0, pol);
    EXPECT_DOUBLE_EQ(dead.p_delivered, 0.0);
    EXPECT_DOUBLE_EQ(dead.expected_attempts, 4.0);
    EXPECT_DOUBLE_EQ(dead.expected_wait_s,
                     (0.05 + 0.1) + (0.05 + 0.2) + (0.05 + 0.4));

    // Generic p: P(delivered) = 1 - p^A, E[attempts] truncated
    // geometric.
    const double p = 0.3;
    const DeliveryModel m = expectedDelivery(p, pol);
    EXPECT_DOUBLE_EQ(m.p_delivered, 1.0 - std::pow(p, 4));
    EXPECT_DOUBLE_EQ(m.expected_attempts,
                     (1.0 - std::pow(p, 4)) / (1.0 - p));
    EXPECT_DOUBLE_EQ(m.expected_wait_s,
                     p * (0.05 + 0.1) + p * p * (0.05 + 0.2) +
                         p * p * p * (0.05 + 0.4));

    // Averaging over a plan reduces to the stationary form when the
    // plan is stationary.
    FaultPlan plan;
    plan.tx_loss = p;
    const DeliveryModel over =
        expectedDeliveryOverPlan(plan, 4.0, 100, pol);
    EXPECT_NEAR(over.p_delivered, m.p_delivered, 1e-12);
    EXPECT_NEAR(over.expected_attempts, m.expected_attempts, 1e-12);
}

// ---------------------------------------------------------------------
// Exact accounting in the runtime
// ---------------------------------------------------------------------

TEST(FaultRuntime, RetryAccountingMatchesOfflineReplay)
{
    const Pipeline pipe = offloadablePipeline();
    const int64_t frames = 400;
    const int max_retries = 2;
    FaultPlan plan;
    plan.seed = 9;
    plan.tx_loss = 0.3;
    const FaultInjector inj(plan);

    RuntimeOptions opts = countingOptions(frames);
    opts.trace_fps = 4.0;
    opts.delivery.max_retries = max_retries;
    opts.delivery.ack_timeout = 0.05;
    opts.delivery.backoff_base = 0.1;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         radioLink("lossy", 1e6, 1.0), opts);
    sp.setFaultInjector(&inj);
    const RuntimeReport rep = sp.run();

    // Replay the oracle offline: the exact same draws the uplink saw.
    int64_t delivered = 0, attempts = 0, losses = 0, retried = 0;
    double backoff = 0.0;
    for (int64_t f = 0; f < frames; ++f) {
        const double t = static_cast<double>(f) / 4.0;
        int a = 0;
        bool ok = false;
        while (a < 1 + max_retries) {
            ++a;
            if (!inj.txLost(0, f, a - 1, t)) {
                ok = true;
                break;
            }
            ++losses;
            if (a < 1 + max_retries) {
                backoff += 0.05 + 0.1 * std::ldexp(1.0, a - 1);
            }
        }
        attempts += a;
        delivered += ok ? 1 : 0;
        retried += a > 1 ? 1 : 0;
    }
    ASSERT_GT(frames - delivered, 0); // the budget does get exhausted

    const LossLedger &lg = rep.ledger;
    EXPECT_TRUE(lg.consistent());
    EXPECT_EQ(lg.offered, frames);
    EXPECT_EQ(lg.delivered, delivered);
    EXPECT_EQ(lg.delivered_remote, delivered);
    EXPECT_EQ(lg.delivered_local, 0);
    EXPECT_EQ(lg.dropped_link, frames - delivered);
    EXPECT_EQ(lg.tx_attempts, attempts);
    EXPECT_EQ(lg.tx_losses, losses);
    EXPECT_EQ(lg.retried_frames, retried);
    // Honest re-pricing: every attempt paid full bytes and Joules.
    EXPECT_DOUBLE_EQ(rep.link.bytes_sent.b(), 1000.0 * attempts);
    EXPECT_DOUBLE_EQ(lg.retry_bytes.b(), 1000.0 * (attempts - frames));
    // Energies accumulate one attempt at a time: exact up to the
    // rounding of the running double sum.
    EXPECT_NEAR(rep.comm_energy.nj(), 1000.0 * 8.0 * attempts, 1e-3);
    EXPECT_NEAR(lg.retry_energy.nj(),
                1000.0 * 8.0 * (attempts - frames), 1e-3);
    EXPECT_NEAR(lg.backoff_seconds, backoff, 1e-9);
    // Goodput after loss: delivered payload over the frame clock span.
    EXPECT_DOUBLE_EQ(lg.goodput_after_loss_bps,
                     delivered * 1000.0 * 8.0 / (frames / 4.0));
}

TEST(FaultRuntime, MeasuredDeliveryTracksTheClosedForm)
{
    const Pipeline pipe = offloadablePipeline();
    const int64_t frames = 2000;
    FaultPlan plan;
    plan.seed = 17;
    plan.tx_loss = 0.3;
    const FaultInjector inj(plan);

    RuntimeOptions opts = countingOptions(frames);
    opts.delivery.max_retries = 3;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         radioLink("lossy", 1e6, 1.0), opts);
    sp.setFaultInjector(&inj);
    const RuntimeReport rep = sp.run();

    DeliveryModelPolicy pol;
    pol.max_retries = 3;
    const DeliveryModel m = expectedDelivery(0.3, pol);
    const double p_meas = static_cast<double>(rep.ledger.delivered) /
                          static_cast<double>(frames);
    const double a_meas = static_cast<double>(rep.ledger.tx_attempts) /
                          static_cast<double>(frames);
    EXPECT_LT(std::abs(p_meas / m.p_delivered - 1.0), 0.10);
    EXPECT_LT(std::abs(a_meas / m.expected_attempts - 1.0), 0.10);
}

TEST(FaultRuntime, BlackoutAccountingIsExact)
{
    const Pipeline pipe = offloadablePipeline();
    const int64_t frames = 120; // 30 s at 4 fps
    FaultPlan plan;
    plan.blackouts = {{Time::seconds(10.0), Time::seconds(10.0)}};
    const FaultInjector inj(plan);

    RuntimeOptions opts = countingOptions(frames);
    opts.trace_fps = 4.0;
    opts.delivery.max_retries = 2;
    opts.delivery.ack_timeout = 0.05;
    opts.delivery.backoff_base = 0.1;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         radioLink("l", 1e6, 1.0), opts);
    sp.setFaultInjector(&inj);
    const RuntimeReport rep = sp.run();

    // Frames 40..79 sit inside [10, 20): every attempt lost, budget
    // spent, frame shed. Everything else delivers first try.
    const LossLedger &lg = rep.ledger;
    EXPECT_TRUE(lg.consistent());
    EXPECT_EQ(lg.dropped_link, 40);
    EXPECT_EQ(lg.delivered, 80);
    EXPECT_EQ(lg.tx_attempts, 80 + 40 * 3);
    EXPECT_EQ(lg.tx_losses, 40 * 3);
    EXPECT_EQ(lg.retried_frames, 40);
    EXPECT_DOUBLE_EQ(lg.retry_bytes.b(), 40.0 * 2 * 1000.0);
    // Two waits per shed frame: (0.05+0.1) + (0.05+0.2).
    EXPECT_NEAR(lg.backoff_seconds, 40.0 * 0.4, 1e-9);
    EXPECT_DOUBLE_EQ(lg.blackout_seconds, 10.0);
}

TEST(FaultRuntime, LedgerAgreesAcrossExecutionShapes)
{
    GilbertElliottParams ge;
    ge.p_good_to_bad = 0.2;
    ge.p_bad_to_good = 0.3;
    ge.step = Time::seconds(2.0);
    ge.duration = Time::seconds(60.0);
    ge.seed = 3;
    FaultPlan plan;
    plan.seed = 5;
    plan.loss_schedule = FaultPlan::gilbertElliottLoss(0.05, 0.7, ge);
    const FaultInjector inj(plan);
    const Pipeline pipe = offloadablePipeline();

    auto run = [&](bool threaded) {
        RuntimeOptions opts = countingOptions(240);
        opts.trace_fps = 4.0;
        opts.delivery.max_retries = 2;
        opts.delivery.ack_timeout = 0.02;
        opts.delivery.backoff_base = 0.05;
        opts.delivery.backoff_jitter = 0.3;
        StreamingPipeline sp(pipe,
                             PipelineConfig::full(pipe, Impl::Asic, 0),
                             radioLink("l", 1e6, 1.0), opts);
        sp.setFaultInjector(&inj);
        RunOptions ro;
        ro.mode = threaded ? ExecutionMode::ThreadedStages
                           : ExecutionMode::Inline;
        return sp.run(ro);
    };
    const RuntimeReport a = run(true);
    const RuntimeReport b = run(false);

    EXPECT_TRUE(a.ledger.consistent());
    EXPECT_GT(a.ledger.tx_losses, 0);
    EXPECT_EQ(a.ledger.offered, b.ledger.offered);
    EXPECT_EQ(a.ledger.delivered, b.ledger.delivered);
    EXPECT_EQ(a.ledger.dropped_link, b.ledger.dropped_link);
    EXPECT_EQ(a.ledger.tx_attempts, b.ledger.tx_attempts);
    EXPECT_EQ(a.ledger.tx_losses, b.ledger.tx_losses);
    EXPECT_EQ(a.ledger.retried_frames, b.ledger.retried_frames);
    EXPECT_DOUBLE_EQ(a.ledger.retry_bytes.b(), b.ledger.retry_bytes.b());
    EXPECT_DOUBLE_EQ(a.ledger.retry_energy.j(),
                     b.ledger.retry_energy.j());
    EXPECT_DOUBLE_EQ(a.ledger.backoff_seconds,
                     b.ledger.backoff_seconds);
    EXPECT_DOUBLE_EQ(a.ledger.goodput_after_loss_bps,
                     b.ledger.goodput_after_loss_bps);
    EXPECT_DOUBLE_EQ(a.link.bytes_sent.b(), b.link.bytes_sent.b());
}

TEST(FaultRuntime, StageFaultPoliciesCountExactly)
{
    const Pipeline pipe = offloadablePipeline();
    const int64_t frames = 500;
    FaultPlan plan;
    plan.seed = 23;
    plan.stage_faults = {{/*block=*/0, /*fault_probability=*/0.2,
                          /*slowdown=*/1.0, Time{}, Time{}}};
    const FaultInjector inj(plan);

    auto run = [&](StagePolicy policy) {
        RuntimeOptions opts = countingOptions(frames);
        opts.stage_policy = policy;
        // Cut 1: the block actually executes in camera.
        StreamingPipeline sp(pipe,
                             PipelineConfig::full(pipe, Impl::Asic, 1),
                             radioLink("l", 1e6, 1.0), opts);
        sp.setFaultInjector(&inj);
        return sp.run();
    };

    // Drop policy: a single faulted draw sheds the frame.
    StagePolicy drop;
    drop.on_fault = StageFaultAction::Drop;
    const RuntimeReport d = run(drop);
    int64_t expect_dropped = 0;
    for (int64_t f = 0; f < frames; ++f) {
        expect_dropped += inj.stageFaulted(0, 0, f, 0) ? 1 : 0;
    }
    ASSERT_GT(expect_dropped, 0);
    EXPECT_TRUE(d.ledger.consistent());
    EXPECT_EQ(d.ledger.dropped_fault, expect_dropped);
    EXPECT_EQ(d.ledger.delivered, frames - expect_dropped);
    EXPECT_EQ(d.ledger.stage_retries, 0);

    // Retry policy: each re-execution re-rolls and pays full energy.
    StagePolicy retry;
    retry.on_fault = StageFaultAction::Retry;
    retry.max_retries = 3;
    const RuntimeReport r = run(retry);
    int64_t expect_retries = 0, expect_fault_dropped = 0,
            executions = 0;
    for (int64_t f = 0; f < frames; ++f) {
        int a = 0;
        while (a <= 3 && inj.stageFaulted(0, 0, f, a)) {
            ++a;
        }
        executions += std::min(a, 3) + 1;
        expect_retries += std::min(a, 3);
        expect_fault_dropped += a > 3 ? 1 : 0;
    }
    EXPECT_TRUE(r.ledger.consistent());
    EXPECT_EQ(r.ledger.stage_retries, expect_retries);
    EXPECT_EQ(r.ledger.dropped_fault, expect_fault_dropped);
    EXPECT_LT(r.ledger.dropped_fault, d.ledger.dropped_fault);
    // Every execution attempt paid the block's modeled 50 uJ.
    EXPECT_NEAR(r.stages[0].energy.uj(), 50.0 * executions, 1e-6);
}

TEST(FaultRuntime, WatchdogTreatsStallAsFault)
{
    const Pipeline pipe = offloadablePipeline();
    const int64_t frames = 120; // 30 s at 4 fps
    FaultPlan plan;
    plan.stage_faults = {{/*block=*/0, /*fault_probability=*/0.0,
                          /*slowdown=*/3.0, Time::seconds(5.0),
                          Time::seconds(5.0)}};
    const FaultInjector inj(plan);

    RuntimeOptions opts = countingOptions(frames);
    opts.trace_fps = 4.0;
    opts.stage_policy.on_fault = StageFaultAction::Drop;
    opts.stage_policy.watchdog_slowdown = 2.0;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 1),
                         radioLink("l", 1e6, 1.0), opts);
    sp.setFaultInjector(&inj);
    const RuntimeReport rep = sp.run();

    // Frames 20..39 sit in the stall window [5, 10): slowdown 3 >=
    // watchdog 2, so the watchdog sheds all of them; nothing else.
    EXPECT_TRUE(rep.ledger.consistent());
    EXPECT_EQ(rep.ledger.dropped_fault, 20);
    EXPECT_EQ(rep.ledger.delivered, frames - 20);
}

TEST(FaultRuntime, CameraCrashWindowDropsAtSource)
{
    const Pipeline pipe = offloadablePipeline();
    const int64_t frames = 120;
    FaultPlan plan;
    plan.crashes = {{/*camera=*/0, Time::seconds(2.0),
                     Time::seconds(2.0)}};
    const FaultInjector inj(plan);

    RuntimeOptions opts = countingOptions(frames);
    opts.trace_fps = 4.0;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         radioLink("l", 1e6, 1.0), opts);
    sp.setFaultInjector(&inj);
    const RuntimeReport rep = sp.run();

    // Frames 8..15 (t in [2, 4)) were offered but the camera was down.
    EXPECT_TRUE(rep.ledger.consistent());
    EXPECT_EQ(rep.ledger.offered, frames);
    EXPECT_EQ(rep.ledger.dropped_source, 8);
    EXPECT_EQ(rep.ledger.delivered, frames - 8);
    // A crash on a *different* camera identity leaves this one alone.
    RuntimeOptions opts2 = countingOptions(frames);
    opts2.trace_fps = 4.0;
    StreamingPipeline other(pipe,
                            PipelineConfig::full(pipe, Impl::Asic, 0),
                            radioLink("l", 1e6, 1.0), opts2);
    other.setFaultInjector(&inj, /*camera=*/1);
    EXPECT_EQ(other.run().ledger.dropped_source, 0);
}

// ---------------------------------------------------------------------
// Degrade-to-local and heal
// ---------------------------------------------------------------------

TEST(DegradeToLocal, BlackoutDegradesThenHealsLosslessly)
{
    const Pipeline pipe = offloadablePipeline();
    const double fps = 4.0;
    const int64_t frames = 240; // 60 s
    FaultPlan plan;
    plan.blackouts = {{Time::seconds(20.0), Time::seconds(20.0)}};
    const FaultInjector inj(plan);
    const NetworkLink link = radioLink("cheap", 1e6, 1.0);

    RuntimeOptions opts = countingOptions(frames);
    opts.trace_fps = fps;
    opts.delivery.probe_every = 8;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         link, opts);
    sp.setFaultInjector(&inj);

    AdaptiveController ctl(pipe, link, degradeController(fps));
    ctl.useFaultPlan(&plan);
    ctl.attach(sp);
    const RuntimeReport rep = sp.run();

    // Samples run before the decision they feed, so the loss EWMA sits
    // at 1 - e^-2.5 ~ 0.918 >= 0.9 at the t=22 decision (five loss-1
    // samples after the step at 20) and at e^-2.5 ~ 0.082 <= 0.2 at
    // t=42: the controller degrades at frame 88 and restores at frame
    // 168 — both epoch switches, both lossless.
    EXPECT_EQ(ctl.switches(), 2);
    EXPECT_FALSE(ctl.degraded()); // healed by the end
    EXPECT_EQ(rep.reconfigurations, 2);
    const LossLedger &lg = rep.ledger;
    EXPECT_TRUE(lg.consistent());
    EXPECT_EQ(lg.offered, frames);
    // Only the pre-degrade blackout frames (80..87) are lost; the
    // degraded epoch keeps everything else alive locally.
    EXPECT_EQ(lg.dropped_link, 8);
    EXPECT_EQ(lg.dropped, 8);
    EXPECT_EQ(lg.delivered, frames - 8);
    EXPECT_EQ(lg.delivered_local, 79);
    EXPECT_EQ(lg.delivered_remote, frames - 8 - 79);
    // Probes: local frames 88..167 probe every 8th; the one at local
    // sequence 72 (frame 160, t = 40) lands after the heal and is the
    // first remote delivery of the recovery.
    EXPECT_EQ(lg.probe_attempts, 10);
    EXPECT_EQ(lg.probe_successes, 1);
    EXPECT_DOUBLE_EQ(lg.blackout_seconds, 20.0);

    // The same blackout against the fixed cut sheds every frame of the
    // outage: adaptive recovery strictly beats it on delivery.
    RuntimeOptions fopts = countingOptions(frames);
    fopts.trace_fps = fps;
    StreamingPipeline fixed(pipe,
                            PipelineConfig::full(pipe, Impl::Asic, 0),
                            link, fopts);
    fixed.setFaultInjector(&inj);
    const RuntimeReport frep = fixed.run();
    EXPECT_TRUE(frep.ledger.consistent());
    EXPECT_EQ(frep.ledger.dropped_link, 80);
    EXPECT_GT(lg.delivered, frep.ledger.delivered);
}

TEST(DegradeToLocal, DecisionsAreBitDeterministicAcrossShapes)
{
    const Pipeline pipe = offloadablePipeline();
    const double fps = 4.0;
    const int64_t frames = 240;
    FaultPlan plan;
    plan.blackouts = {{Time::seconds(20.0), Time::seconds(20.0)}};
    const FaultInjector inj(plan);
    const NetworkLink link = radioLink("cheap", 1e6, 1.0);

    auto run = [&](bool threaded) {
        RuntimeOptions opts = countingOptions(frames);
        opts.trace_fps = fps;
        // Start fully in camera — the same initial config the offline
        // replay adopts — so all three shapes share decision #1.
        StreamingPipeline sp(pipe,
                             PipelineConfig::full(pipe, Impl::Asic),
                             link, opts);
        sp.setFaultInjector(&inj);
        auto ctl = std::make_unique<AdaptiveController>(
            pipe, link, degradeController(fps));
        ctl->useFaultPlan(&plan);
        ctl->attach(sp);
        RunOptions ro;
        ro.mode = threaded ? ExecutionMode::ThreadedStages
                           : ExecutionMode::Inline;
        const RuntimeReport rep = sp.run(ro);
        return std::make_pair(std::move(ctl), rep);
    };
    const auto [ctl_t, rep_t] = run(true);
    const auto [ctl_i, rep_i] = run(false);

    // Offline replay: the same decisions with no runtime attached.
    AdaptiveController replay(pipe, link, degradeController(fps));
    replay.useFaultPlan(&plan);
    for (int64_t i = 0; i < frames; ++i) {
        replay.onFrame(i);
    }

    ASSERT_EQ(ctl_t->decisions().size(), ctl_i->decisions().size());
    ASSERT_EQ(ctl_t->decisions().size(), replay.decisions().size());
    for (size_t i = 0; i < replay.decisions().size(); ++i) {
        const AdaptiveDecision &a = ctl_t->decisions()[i];
        const AdaptiveDecision &b = ctl_i->decisions()[i];
        const AdaptiveDecision &c = replay.decisions()[i];
        EXPECT_EQ(a.t, b.t);
        EXPECT_EQ(a.chosen, b.chosen);
        EXPECT_EQ(a.switched, b.switched);
        EXPECT_EQ(a.chosen, c.chosen);
        EXPECT_EQ(a.switched, c.switched);
    }
    EXPECT_EQ(ctl_t->switches(), replay.switches());
    // And the ledgers agree exactly across shapes.
    EXPECT_EQ(rep_t.ledger.delivered, rep_i.ledger.delivered);
    EXPECT_EQ(rep_t.ledger.delivered_local,
              rep_i.ledger.delivered_local);
    EXPECT_EQ(rep_t.ledger.dropped_link, rep_i.ledger.dropped_link);
    EXPECT_EQ(rep_t.ledger.probe_attempts,
              rep_i.ledger.probe_attempts);
}

TEST(DegradeToLocal, FleetDegradesAndHealsUnderSharedBlackout)
{
    const Pipeline pipe = offloadablePipeline();
    const double fps = 4.0;
    const int64_t frames = 240;
    const size_t n_cams = 8;
    FaultPlan plan;
    plan.blackouts = {{Time::seconds(20.0), Time::seconds(20.0)}};
    // Camera 3 also crashes for 5 s well before the blackout.
    plan.crashes = {{/*camera=*/3, Time::seconds(10.0),
                     Time::seconds(5.0)}};
    const FaultInjector inj(plan);
    const NetworkLink link = radioLink("shared", 8e6, 1.0);

    FleetOptions fopts;
    fopts.gating = GatingMode::None;
    fopts.pace_stages = false;
    fopts.pace_link = false;
    fopts.trace_fps = fps;
    fopts.faults = &inj;
    fopts.delivery.probe_every = 8;
    CameraFleet fleet(link, fopts);

    std::vector<FleetCameraModel> models;
    for (size_t i = 0; i < n_cams; ++i) {
        FleetCameraModel m;
        m.name = "cam" + std::to_string(i);
        m.pipeline = &pipe;
        m.config = PipelineConfig::full(pipe, Impl::Asic, 0);
        models.push_back(std::move(m));
    }
    FleetOptimizerGoal goal;
    goal.kind = FleetOptimizerGoal::Kind::MinTotalEnergy;
    FleetAdaptiveController ctl(models, link, SharePolicy::Fair, goal,
                                degradeController(fps));
    ctl.useFaultPlan(&plan);

    for (size_t i = 0; i < n_cams; ++i) {
        FleetCamera cam("cam" + std::to_string(i), pipe,
                        PipelineConfig::full(pipe, Impl::Asic, 0));
        cam.frames = frames;
        cam.customize = [&ctl, i](StreamingPipeline &sp) {
            ctl.attachCamera(sp, i);
        };
        fleet.addCamera(std::move(cam));
    }
    RunOptions per_camera;
    per_camera.mode = ExecutionMode::ThreadPerCamera;
    const FleetRunReport rep = fleet.run(per_camera);

    // Ticker-driven degrade + heal, fleet-wide.
    EXPECT_EQ(ctl.switches(), 2);
    EXPECT_FALSE(ctl.degraded());
    EXPECT_TRUE(rep.ledger.consistent());
    EXPECT_EQ(rep.ledger.offered,
              static_cast<int64_t>(n_cams) * frames);
    EXPECT_GT(rep.ledger.delivered_local, 0);
    // Camera 3's crash window: frames 40..59 offered while down.
    EXPECT_EQ(rep.cameras[3].runtime.ledger.dropped_source, 20);
    for (const FleetCameraReport &cam : rep.cameras) {
        EXPECT_TRUE(cam.runtime.ledger.consistent()) << cam.name;
        EXPECT_EQ(cam.runtime.ledger.offered, frames) << cam.name;
    }
    // The ticker camera's schedule is frame-exact (its own source tick
    // drives the decisions): degrade at its frame 88, restore at 168.
    const LossLedger &t = rep.cameras[0].runtime.ledger;
    EXPECT_EQ(t.dropped_link, 8);
    EXPECT_EQ(t.delivered, frames - 8);
    EXPECT_EQ(t.delivered_local, 79);
}

} // namespace
} // namespace incam
