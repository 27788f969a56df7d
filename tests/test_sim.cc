/**
 * @file
 * Tests for the discrete-event execution mode: the VirtualClock /
 * EventScheduler primitives, the SimLink virtual-time GPS arbiter,
 * and the headline property the sim/ layer is built around —
 * bit-equivalence of counting-mode ledgers, energies and adaptive
 * decisions between the discrete-event engine and the threaded
 * runtime, on solo pipelines and on FA/VR fleets at 1, 4 and 8
 * cameras, including fault-plan runs.
 *
 * Everything here is exact arithmetic on model time (discrete-event
 * runs never sleep), so the suite is immune to host load and thread
 * count and runs in the TSan CI matrix at INCAM_THREADS = 1, 2, 8.
 */

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/controller.hh"
#include "core/fleet_model.hh"
#include "core/network.hh"
#include "fa/scenario.hh"
#include "fault/fault.hh"
#include "fleet/fleet.hh"
#include "obs/export.hh"
#include "obs/trace.hh"
#include "runtime/pacer.hh"
#include "runtime/runtime.hh"
#include "runtime/uplink.hh"
#include "sim/clock.hh"
#include "sim/engine.hh"
#include "sim/scheduler.hh"
#include "sim/sim_link.hh"
#include "trace/trace.hh"
#include "vr/scenario.hh"

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

/** One-block pipeline; cut 0 streams 1000 raw bytes, cut 1 computes
 *  in camera and ships 100 (the shared solo-test workload). */
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

/** Full-ledger equality: the bit-equivalence gate. */
void
expectSameLedger(const LossLedger &a, const LossLedger &b)
{
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.delivered_remote, b.delivered_remote);
    EXPECT_EQ(a.delivered_local, b.delivered_local);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.dropped_gated, b.dropped_gated);
    EXPECT_EQ(a.dropped_source, b.dropped_source);
    EXPECT_EQ(a.dropped_link, b.dropped_link);
    EXPECT_EQ(a.dropped_fault, b.dropped_fault);
    EXPECT_EQ(a.dropped_shutdown, b.dropped_shutdown);
    EXPECT_EQ(a.retried_frames, b.retried_frames);
    EXPECT_EQ(a.tx_attempts, b.tx_attempts);
    EXPECT_EQ(a.tx_losses, b.tx_losses);
    EXPECT_EQ(a.stage_retries, b.stage_retries);
    EXPECT_EQ(a.probe_attempts, b.probe_attempts);
    EXPECT_EQ(a.probe_successes, b.probe_successes);
    EXPECT_DOUBLE_EQ(a.retry_bytes.b(), b.retry_bytes.b());
    EXPECT_DOUBLE_EQ(a.retry_energy.j(), b.retry_energy.j());
    EXPECT_DOUBLE_EQ(a.backoff_seconds, b.backoff_seconds);
    EXPECT_DOUBLE_EQ(a.blackout_seconds, b.blackout_seconds);
    EXPECT_DOUBLE_EQ(a.goodput_after_loss_bps,
                     b.goodput_after_loss_bps);
}

// ---------------------------------------------------------------------
// Clock and scheduler primitives
// ---------------------------------------------------------------------

TEST(Sim, VirtualClockAdvancesMonotonically)
{
    sim::VirtualClock clk;
    EXPECT_TRUE(clk.virtualTime());
    EXPECT_DOUBLE_EQ(clk.now(), 0.0);
    clk.sleepFor(1.5);
    EXPECT_DOUBLE_EQ(clk.now(), 1.5);
    clk.sleepUntil(1.0); // a sleep never moves time backwards
    EXPECT_DOUBLE_EQ(clk.now(), 1.5);
    clk.advanceTo(4.0);
    EXPECT_DOUBLE_EQ(clk.now(), 4.0);
    clk.sleepFor(-3.0); // non-positive waits are no-ops
    EXPECT_DOUBLE_EQ(clk.now(), 4.0);

    EXPECT_FALSE(sim::WallClock::shared().virtualTime());
}

TEST(Sim, EventSchedulerTieBreakIsDeterministic)
{
    sim::EventScheduler q;
    // Scheduled in scrambled order; pops must sort on
    // (time, camera, kind, seq).
    q.schedule(2.0, 1, 0);
    q.schedule(1.0, 3, 7);
    q.schedule(1.0, 0, 5);
    q.schedule(1.0, 0, 2);
    q.schedule(1.0, -1, 9);
    q.schedule(1.0, 0, 2); // identical tuple: earlier seq pops first
    ASSERT_EQ(q.pending(), 6u);

    const sim::Event a = q.pop();
    EXPECT_DOUBLE_EQ(a.t, 1.0);
    EXPECT_EQ(a.camera, -1); // link-global events lead their instant
    const sim::Event b = q.pop();
    EXPECT_EQ(b.camera, 0);
    EXPECT_EQ(b.kind, 2);
    const sim::Event c = q.pop();
    EXPECT_EQ(c.kind, 2);
    EXPECT_GT(c.seq, b.seq);
    EXPECT_EQ(q.pop().kind, 5);
    EXPECT_EQ(q.pop().camera, 3);
    EXPECT_DOUBLE_EQ(q.pop().t, 2.0);
    EXPECT_TRUE(q.empty());
}

TEST(Sim, TokenBucketIsExactOnVirtualTime)
{
    // 10 tokens/s, burst 1, bucket starts empty: every acquire goes
    // into debt and advances model time by 0.1 s — the debt settles
    // to zero each round because virtual sleeps are exact.
    sim::VirtualClock clk;
    TokenBucket bucket(10.0, 1.0, &clk);
    for (int i = 0; i < 50; ++i) {
        bucket.acquire(1.0);
    }
    EXPECT_NEAR(clk.now(), 5.0, 1e-9);
}

// ---------------------------------------------------------------------
// SimLink: virtual-time GPS
// ---------------------------------------------------------------------

TEST(SimLink, FairShareDrainsAndPricesExactly)
{
    sim::SimLink link(radioLink("l", 1000.0, 2.0), {});
    const int a = link.addEndpoint("a");
    const int b = link.addEndpoint("b");

    link.submit(a, 1000.0, 0.0);
    EXPECT_DOUBLE_EQ(link.nextDepartureTime(), 1.0);
    // b arrives halfway: a has 500 B left, both drain at 500 B/s.
    link.submit(b, 250.0, 0.5);
    EXPECT_DOUBLE_EQ(link.nextDepartureTime(), 1.0); // b: 250 B first
    link.advanceTo(1.0);
    auto done = link.takeCompleted();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].endpoint, b);
    EXPECT_DOUBLE_EQ(done[0].depart_t, 1.0);
    EXPECT_DOUBLE_EQ(done[0].energy.nj(), 250.0 * 8.0 * 2.0);
    // a alone again: 250 B left at full rate.
    EXPECT_DOUBLE_EQ(link.nextDepartureTime(), 1.25);
    link.advanceTo(1.25);
    done = link.takeCompleted();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].endpoint, a);
    EXPECT_DOUBLE_EQ(done[0].energy.nj(), 1000.0 * 8.0 * 2.0);

    const auto rep = link.report();
    EXPECT_EQ(rep[static_cast<size_t>(a)].grants, 1);
    EXPECT_DOUBLE_EQ(rep[static_cast<size_t>(a)].bytes.b(), 1000.0);
    EXPECT_DOUBLE_EQ(rep[static_cast<size_t>(a)].wait_seconds, 1.25);
}

TEST(SimLink, StrictPriorityPreemptsLowerTier)
{
    sim::SimLink::Options opts;
    opts.policy = SharePolicy::StrictPriority;
    sim::SimLink link(radioLink("l", 1000.0, 1.0), opts);
    const int lo = link.addEndpoint("lo", 1.0);
    const int hi = link.addEndpoint("hi", 2.0);

    link.submit(lo, 1000.0, 0.0);
    EXPECT_DOUBLE_EQ(link.nextDepartureTime(), 1.0);
    // The high tier arrives at 0.2 with 500 B: lo freezes with 800 B
    // left, hi drains alone 0.2 -> 0.7, lo resumes 0.7 -> 1.5.
    link.submit(hi, 500.0, 0.2);
    EXPECT_DOUBLE_EQ(link.nextDepartureTime(), 0.7);
    link.advanceTo(0.7);
    auto done = link.takeCompleted();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].endpoint, hi);
    EXPECT_DOUBLE_EQ(link.nextDepartureTime(), 1.5);
    link.advanceTo(1.5);
    done = link.takeCompleted();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].endpoint, lo);
    EXPECT_DOUBLE_EQ(done[0].depart_t, 1.5);
}

// ---------------------------------------------------------------------
// Solo pipeline: discrete-event vs inline vs threaded
// ---------------------------------------------------------------------

TEST(Sim, SoloDiscreteEventMatchesThreadedBitExactUnderFaults)
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

    auto run = [&](ExecutionMode mode) {
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
        ro.mode = mode;
        return sp.run(ro);
    };
    const RuntimeReport des = run(ExecutionMode::DiscreteEvent);
    const RuntimeReport threaded = run(ExecutionMode::ThreadedStages);
    const RuntimeReport inl = run(ExecutionMode::Inline);

    EXPECT_TRUE(des.ledger.consistent());
    EXPECT_GT(des.ledger.tx_losses, 0);
    expectSameLedger(des.ledger, threaded.ledger);
    expectSameLedger(des.ledger, inl.ledger);
    EXPECT_EQ(des.delivered_frames, threaded.delivered_frames);
    EXPECT_DOUBLE_EQ(des.link.bytes_sent.b(),
                     threaded.link.bytes_sent.b());
    EXPECT_DOUBLE_EQ(des.compute_energy.j(), threaded.compute_energy.j());
    EXPECT_DOUBLE_EQ(des.comm_energy.j(), threaded.comm_energy.j());
    EXPECT_DOUBLE_EQ(des.joules_per_frame.j(),
                     threaded.joules_per_frame.j());
}

TEST(Sim, SoloAdaptiveDecisionsMatchAcrossShapes)
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
    ControllerOptions copts;
    copts.goal.kind = OptimizerGoal::Kind::MinEnergy;
    copts.decision_period = 2.0;
    copts.sample_period = 0.5;
    copts.ewma_horizon = Time::seconds(1.0);
    copts.hysteresis = 0.05;
    copts.min_dwell = 1;
    copts.trace_fps = fps;

    auto run_once = [&](ExecutionMode mode) {
        RuntimeOptions opts = countingOptions(frames);
        opts.trace_fps = fps;
        StreamingPipeline sp(pipe, PipelineConfig::full(pipe),
                             trace.at(Time{}), opts);
        auto ctl = std::make_unique<AdaptiveController>(
            pipe, trace.at(Time{}), copts);
        ctl->useNetworkTrace(&trace);
        ctl->attach(sp);
        RunOptions ro;
        ro.mode = mode;
        const RuntimeReport rep = sp.run(ro);
        return std::make_pair(std::move(ctl), rep.delivered_frames);
    };

    const auto [ctl_des, delivered_des] =
        run_once(ExecutionMode::DiscreteEvent);
    const auto [ctl_threaded, delivered_threaded] =
        run_once(ExecutionMode::ThreadedStages);

    ASSERT_EQ(ctl_des->decisions().size(),
              ctl_threaded->decisions().size());
    for (size_t i = 0; i < ctl_des->decisions().size(); ++i) {
        const AdaptiveDecision &a = ctl_des->decisions()[i];
        const AdaptiveDecision &b = ctl_threaded->decisions()[i];
        EXPECT_EQ(a.t, b.t);
        EXPECT_EQ(a.chosen, b.chosen);
        EXPECT_EQ(a.switched, b.switched);
        EXPECT_EQ(a.objective, b.objective);
    }
    EXPECT_GE(ctl_des->switches(), 2);
    EXPECT_EQ(delivered_des, delivered_threaded);
    EXPECT_EQ(delivered_des, frames);
}

TEST(Sim, SoloTracePacedRunExecutesOnModelTime)
{
    // A trace-paced pipeline on a VirtualClock: SharedLink's fluid
    // drain advances model time instead of sleeping, so the run is
    // immediate in wall time while the *model* numbers come out link
    // bound. 1000-byte raw frames on a 50 kB/s first segment = 50 FPS.
    const Pipeline pipe = offloadablePipeline();
    const NetworkTrace trace = NetworkTrace::piecewise(
        "ab", {{Time::seconds(0.0), radioLink("a", 50e3, 1.0)},
               {Time::seconds(30.0), radioLink("b", 25e3, 4.0)}});

    sim::VirtualClock clk;
    RuntimeOptions opts;
    opts.frames = 200;
    opts.gating = GatingMode::None;
    SharedLink::Options lopts;
    lopts.trace = &trace;
    lopts.clock = &clk;
    SharedLink link(trace.at(Time{}), lopts);
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         trace.at(Time{}), opts);
    sp.attachSharedLink(&link, link.addEndpoint("cam"));
    RunOptions ro;
    ro.mode = ExecutionMode::Inline;
    ro.clock = &clk;
    const RuntimeReport rep = sp.run(ro);

    EXPECT_EQ(rep.delivered_frames, 200);
    // 200 kB over a 50 kB/s segment: all inside the first segment, so
    // the model rate is the segment's 50 FPS (fill edges excepted).
    EXPECT_NEAR(rep.model_fps, 50.0, 1.0);
    EXPECT_GT(clk.now(), 3.9);
    EXPECT_LT(clk.now(), 4.1);

    // The same stream on a stationary 50 kB/s link with no link
    // attached: the run's own SharedLink paces it on model time, at
    // exactly the link's rate and per-bit price.
    sim::VirtualClock solo_clk;
    StreamingPipeline solo(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                           radioLink("a", 50e3, 1.0), opts);
    ro.clock = &solo_clk;
    const RuntimeReport solo_rep = solo.run(ro);
    EXPECT_EQ(solo_rep.delivered_frames, 200);
    EXPECT_NEAR(solo_rep.model_fps, 50.0, 1e-9);
    EXPECT_NEAR(solo_clk.now(), 4.0, 1e-9);
    // 200 frames x 1000 B x 8 bit x 1 nJ/bit.
    EXPECT_NEAR(solo_rep.comm_energy.j(), 1.6e-3, 1e-15);
}

TEST(Sim, EngineRefusesAPipelineWithASharedLink)
{
    // The engine owns delivery: a SharedLink a customize hook attaches
    // would never carry a byte, and its endpoint would never be
    // released. beginEventRun() refuses it.
    const Pipeline pipe = offloadablePipeline();
    const NetworkLink net = radioLink("l", 50e3, 1.0);
    SharedLink stray(net, SharedLink::Options{});
    FleetOptions fo;
    fo.pace_stages = false;
    fo.pace_link = false;
    CameraFleet fleet(net, fo);
    FleetCamera cam("cam", pipe, PipelineConfig::full(pipe, Impl::Asic, 0));
    cam.frames = 4;
    cam.customize = [&stray](StreamingPipeline &sp) {
        sp.attachSharedLink(&stray, stray.addEndpoint("stray"));
    };
    fleet.addCamera(std::move(cam));
    RunOptions ro;
    ro.mode = ExecutionMode::DiscreteEvent;
    EXPECT_DEATH((void)fleet.run(ro), "must not have a SharedLink attached");
}

// ---------------------------------------------------------------------
// Fleet: discrete-event vs thread-per-camera
// ---------------------------------------------------------------------

/** FA rig fleets, counting mode, with a shared fault plan, on a
 *  stationary link and on a Gilbert-Elliott fading trace: the ledgers
 *  of every camera must be bit-identical across execution shapes. */
TEST(Sim, FleetDiscreteEventMatchesThreadPerCameraBitExact)
{
    const Pipeline fa = buildFaPipeline(nominalFaMeasurements());
    FaultPlan plan;
    plan.seed = 17;
    plan.tx_loss = 0.1;
    plan.blackouts = {{Time::seconds(20.0), Time::seconds(5.0)}};
    plan.crashes = {{/*camera=*/1, Time::seconds(10.0),
                     Time::seconds(3.0)}};
    const FaultInjector inj(plan);
    const NetworkLink link = radioLink("shared", 8e6, 1.0);
    const NetworkTrace fading = NetworkTrace::gilbertElliott(
        link, radioLink("faded", 1e6, 6.0),
        GilbertElliottParams{.p_good_to_bad = 0.15,
                             .p_bad_to_good = 0.35,
                             .step = Time::seconds(2.0),
                             .duration = Time::seconds(60.0),
                             .seed = 5});

    const NetworkTrace *const traces[] = {nullptr, &fading};
    for (const NetworkTrace *trace : traces) {
        for (const size_t n_cams : {1u, 4u, 8u}) {
            SCOPED_TRACE(trace != nullptr ? "fading trace" : "stationary");
            auto run = [&](ExecutionMode mode) {
                FleetOptions fopts;
                fopts.network_trace = trace;
                fopts.gating = GatingMode::Model;
                fopts.pace_stages = false;
                fopts.pace_link = false;
                fopts.trace_fps = 4.0;
                fopts.faults = &inj;
                fopts.delivery.max_retries = 2;
                fopts.delivery.ack_timeout = 0.02;
                fopts.delivery.backoff_base = 0.05;
                CameraFleet fleet(link, fopts);
                for (size_t i = 0; i < n_cams; ++i) {
                    FleetCamera cam(
                        "cam" + std::to_string(i), fa,
                        PipelineConfig::full(fa, Impl::Asic,
                                             i % 2 == 0 ? 0 : 2));
                    cam.frames = 120;
                    fleet.addCamera(std::move(cam));
                }
                RunOptions ro;
                ro.mode = mode;
                return fleet.run(ro);
            };
            const FleetRunReport des = run(ExecutionMode::DiscreteEvent);
            const FleetRunReport threaded =
                run(ExecutionMode::ThreadPerCamera);

            ASSERT_EQ(des.cameras.size(), n_cams);
            EXPECT_TRUE(des.ledger.consistent());
            expectSameLedger(des.ledger, threaded.ledger);
            for (size_t i = 0; i < n_cams; ++i) {
                SCOPED_TRACE(des.cameras[i].name);
                expectSameLedger(des.cameras[i].runtime.ledger,
                                 threaded.cameras[i].runtime.ledger);
                EXPECT_DOUBLE_EQ(
                    des.cameras[i].runtime.total_energy().j(),
                    threaded.cameras[i].runtime.total_energy().j());
                EXPECT_EQ(des.cameras[i].link.grants,
                          threaded.cameras[i].link.grants);
                EXPECT_DOUBLE_EQ(des.cameras[i].link.bytes.b(),
                                 threaded.cameras[i].link.bytes.b());
                EXPECT_TRUE(des.cameras[i].link.released);
            }
            EXPECT_DOUBLE_EQ(des.total_energy.j(),
                             threaded.total_energy.j());
            EXPECT_DOUBLE_EQ(des.uplink_bytes.b(),
                             threaded.uplink_bytes.b());
        }
    }
}

TEST(Sim, VrFleetDiscreteEventMatchesThreadPerCameraBitExact)
{
    const Pipeline vr = buildVrPipeline(VrPipelineModel{});
    const NetworkLink link = twentyFiveGbE();

    for (const size_t n_cams : {1u, 4u}) {
        auto run = [&](ExecutionMode mode) {
            FleetOptions fopts;
            fopts.gating = GatingMode::Model;
            fopts.pace_stages = false;
            fopts.pace_link = false;
            // The frame clock makes rate-shaped ledger numbers (e.g.
            // goodput after loss) deterministic in both shapes.
            fopts.trace_fps = 30.0;
            CameraFleet fleet(link, fopts);
            for (size_t i = 0; i < n_cams; ++i) {
                FleetCamera cam("vr" + std::to_string(i), vr,
                                PipelineConfig::full(vr, Impl::Fpga, 4));
                cam.frames = 50;
                fleet.addCamera(std::move(cam));
            }
            RunOptions ro;
            ro.mode = mode;
            return fleet.run(ro);
        };
        const FleetRunReport des = run(ExecutionMode::DiscreteEvent);
        const FleetRunReport threaded =
            run(ExecutionMode::ThreadPerCamera);

        expectSameLedger(des.ledger, threaded.ledger);
        for (size_t i = 0; i < n_cams; ++i) {
            SCOPED_TRACE(des.cameras[i].name);
            EXPECT_EQ(des.cameras[i].runtime.delivered_frames, 50);
            expectSameLedger(des.cameras[i].runtime.ledger,
                             threaded.cameras[i].runtime.ledger);
            EXPECT_DOUBLE_EQ(
                des.cameras[i].runtime.total_energy().j(),
                threaded.cameras[i].runtime.total_energy().j());
        }
    }
}

TEST(Sim, FleetAdaptiveDegradesAndHealsUnderBlackoutDiscreteEvent)
{
    // The DegradeToLocal fleet scenario, replayed discrete-event: the
    // ticker camera's schedule is frame-exact (its own source tick
    // drives the decisions), so its numbers must match the threaded
    // expectations digit for digit.
    const Pipeline pipe = offloadablePipeline();
    const double fps = 4.0;
    const int64_t frames = 240;
    const size_t n_cams = 8;
    FaultPlan plan;
    plan.blackouts = {{Time::seconds(20.0), Time::seconds(20.0)}};
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
    ControllerOptions copts;
    copts.goal.kind = OptimizerGoal::Kind::MinEnergy;
    copts.decision_period = 2.0;
    copts.sample_period = 0.5;
    copts.ewma_horizon = Time::seconds(1.0);
    copts.hysteresis = 0.05;
    copts.min_dwell = 1;
    copts.trace_fps = fps;
    copts.degrade_loss_threshold = 0.9;
    copts.restore_loss_threshold = 0.2;
    FleetAdaptiveController ctl(models, link, SharePolicy::Fair, goal,
                                copts);
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
    RunOptions ro;
    ro.mode = ExecutionMode::DiscreteEvent;
    const FleetRunReport rep = fleet.run(ro);

    EXPECT_EQ(ctl.switches(), 2);
    EXPECT_FALSE(ctl.degraded());
    EXPECT_TRUE(rep.ledger.consistent());
    EXPECT_EQ(rep.ledger.offered,
              static_cast<int64_t>(n_cams) * frames);
    EXPECT_GT(rep.ledger.delivered_local, 0);
    EXPECT_EQ(rep.cameras[3].runtime.ledger.dropped_source, 20);
    for (const FleetCameraReport &cam : rep.cameras) {
        EXPECT_TRUE(cam.runtime.ledger.consistent()) << cam.name;
        EXPECT_EQ(cam.runtime.ledger.offered, frames) << cam.name;
    }
    // Same ticker schedule as the threaded run in test_fault.cc:
    // degrade at its frame 88, restore at 168.
    const LossLedger &t = rep.cameras[0].runtime.ledger;
    EXPECT_EQ(t.dropped_link, 8);
    EXPECT_EQ(t.delivered, frames - 8);
    EXPECT_EQ(t.delivered_local, 79);
}

TEST(Sim, PacedFleetDiscreteEventTracksFleetModel)
{
    // Three raw-streaming FA cameras saturate Wi-Fi; the analytical
    // waterfill says each gets goodput/3 = 93.75 FPS. The paced
    // discrete-event run plays the same fluid-fair model on virtual
    // time, so it should land within a couple of percent — tighter
    // than the wall-clock tolerance, with zero wall-clock cost.
    const Pipeline fa = buildFaPipeline(nominalFaMeasurements());
    const NetworkLink link = wifiUplink();

    FleetOptions opts;
    opts.gating = GatingMode::None;
    CameraFleet fleet(link, opts);
    for (int i = 0; i < 3; ++i) {
        FleetCamera cam("cam" + std::to_string(i), fa,
                        PipelineConfig::full(fa, Impl::Asic, 0));
        cam.frames = 60;
        fleet.addCamera(std::move(cam));
    }
    const FleetModelReport model =
        fleetReport(fleet.modelCameras(), link, opts.policy);

    RunOptions ro;
    ro.mode = ExecutionMode::DiscreteEvent;
    const FleetRunReport rep = fleet.run(ro);
    ASSERT_EQ(rep.cameras.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(rep.cameras[i].runtime.delivered_frames, 60);
        EXPECT_NEAR(rep.cameras[i].runtime.model_fps /
                        model.cameras[i].fps,
                    1.0, 0.02)
            << rep.cameras[i].name;
    }
    EXPECT_NEAR(rep.aggregate_model_fps / model.aggregate_fps, 1.0,
                0.02);
    EXPECT_GT(rep.link_utilization, 0.9);
}

TEST(Sim, WeightedPacedSharesFollowWeightsDiscreteEvent)
{
    // 3:1 weights, frame counts matched to the shares so both cameras
    // stay backlogged to the end: delivered rates must split 3:1.
    const Pipeline fa = buildFaPipeline(nominalFaMeasurements());
    FleetOptions opts;
    opts.gating = GatingMode::None;
    opts.policy = SharePolicy::Weighted;
    CameraFleet fleet(wifiUplink(), opts);
    FleetCamera heavy("heavy", fa,
                      PipelineConfig::full(fa, Impl::Asic, 0));
    heavy.weight = 3.0;
    heavy.frames = 90;
    fleet.addCamera(std::move(heavy));
    FleetCamera light("light", fa,
                      PipelineConfig::full(fa, Impl::Asic, 0));
    light.weight = 1.0;
    light.frames = 30;
    fleet.addCamera(std::move(light));

    RunOptions ro;
    ro.mode = ExecutionMode::DiscreteEvent;
    const FleetRunReport rep = fleet.run(ro);
    EXPECT_EQ(rep.cameras[0].runtime.delivered_frames, 90);
    EXPECT_EQ(rep.cameras[1].runtime.delivered_frames, 30);
    EXPECT_NEAR(rep.cameras[0].runtime.model_fps /
                    rep.cameras[1].runtime.model_fps,
                3.0, 0.15);
}

TEST(Sim, PacedRetryWaitsCompleteAtEveryFleetSize)
{
    // A paced fleet whose lost attempts wait before retrying: a submit
    // settling the link can pop another camera's departure due at that
    // instant. Left for a later departure event, it resolved into the
    // past and tripped SimLink's order assert — first at 22 cameras,
    // then at 61 of the 128 sizes swept here and at 1,000.
    const Pipeline fa_large = buildFaPipeline(nominalFaMeasurements());
    const Pipeline fa_small =
        buildFaPipeline(nominalFaMeasurements(128, 96, 18));
    FaultPlan plan;
    plan.seed = 5;
    plan.tx_loss = 0.1;
    const FaultInjector faults(plan);
    FleetOptions opts;
    opts.gating = GatingMode::None;
    opts.faults = &faults;
    opts.delivery.max_retries = 2;
    opts.delivery.ack_timeout = 0.02;
    opts.delivery.backoff_base = 0.05;
    constexpr int64_t kFrames = 20;

    std::vector<int> sizes;
    for (int n = 1; n <= 128; ++n) {
        sizes.push_back(n);
    }
    sizes.push_back(1000);
    for (const int n : sizes) {
        CameraFleet fleet(backscatterUplink(), opts);
        for (int i = 0; i < n; ++i) {
            const Pipeline &p = i % 2 == 0 ? fa_large : fa_small;
            FleetCamera cam("wisp" + std::to_string(i), p,
                            PipelineConfig::full(p, Impl::Asic, 2));
            cam.frames = kFrames;
            fleet.addCamera(std::move(cam));
        }
        RunOptions ro;
        ro.mode = ExecutionMode::DiscreteEvent;
        const FleetRunReport rep = fleet.run(ro);
        EXPECT_TRUE(rep.ledger.consistent()) << n << " cameras";
        EXPECT_EQ(rep.ledger.offered, n * kFrames) << n << " cameras";
    }
}

TEST(Sim, PacedRetriesOnTheEngineMatchInlineOnModelTime)
{
    // The engine's paced attempt path (submit, departure, loss draw,
    // jittered backoff on model time) against the runtime's own retry
    // loop: one paced camera on the engine and the same camera run
    // Inline on a VirtualClock book the same ledger and trace the same
    // frames. Only the energies may differ, in the last bits: SimLink
    // integrates the price over a departure, the solo SharedLink also
    // prices banked bytes at claim time.
    const Pipeline pipe = offloadablePipeline();
    const PipelineConfig raw = PipelineConfig::full(pipe, Impl::Asic, 0);
    const NetworkLink net = radioLink("l", 50e3, 1.0);
    FaultPlan plan;
    plan.seed = 5;
    plan.tx_loss = 0.25;
    const FaultInjector faults(plan);
    DeliveryPolicy delivery;
    delivery.max_retries = 2;
    delivery.ack_timeout = 0.02;
    delivery.backoff_base = 0.05;
    delivery.backoff_jitter = 0.3;
    constexpr int64_t kFrames = 120;
    constexpr double kFps = 4.0;

    FleetOptions fo;
    fo.gating = GatingMode::None;
    fo.trace_fps = kFps;
    fo.faults = &faults;
    fo.delivery = delivery;
    CameraFleet fleet(net, fo);
    FleetCamera cam("cam", pipe, raw);
    cam.frames = kFrames;
    fleet.addCamera(std::move(cam));
    obs::TraceRecorder des_rec;
    RunOptions des_ro;
    des_ro.mode = ExecutionMode::DiscreteEvent;
    des_ro.obs.recorder = &des_rec;
    des_ro.obs.frame_time = true;
    const RuntimeReport des = fleet.run(des_ro).cameras.at(0).runtime;

    RuntimeOptions opts;
    opts.frames = kFrames;
    opts.gating = GatingMode::None;
    opts.trace_fps = kFps;
    opts.delivery = delivery;
    StreamingPipeline sp(pipe, raw, net, opts);
    sp.setFaultInjector(&faults);
    obs::TraceRecorder inl_rec;
    obs::ObsConfig oc;
    oc.recorder = &inl_rec;
    oc.frame_time = true;
    sp.setObs(oc, 0, "cam");
    sim::VirtualClock clk;
    RunOptions inl_ro;
    inl_ro.mode = ExecutionMode::Inline;
    inl_ro.clock = &clk;
    const RuntimeReport inl = sp.run(inl_ro);

    EXPECT_GT(des.ledger.tx_losses, 0);
    EXPECT_GT(des.ledger.dropped_link, 0);
    EXPECT_GT(des.ledger.backoff_seconds, 0.0);
    const double e_ref = inl.comm_energy.j();
    EXPECT_NEAR(des.comm_energy.j(), e_ref, 1e-12 * e_ref);
    const double r_ref = inl.ledger.retry_energy.j();
    EXPECT_NEAR(des.ledger.retry_energy.j(), r_ref, 1e-12 * r_ref);
    LossLedger des_counts = des.ledger;
    des_counts.retry_energy = inl.ledger.retry_energy; // compared above
    expectSameLedger(des_counts, inl.ledger);
    EXPECT_EQ(des.delivered_frames, inl.delivered_frames);
    EXPECT_DOUBLE_EQ(des.link.bytes_sent.b(), inl.link.bytes_sent.b());

    const std::string des_json = obs::chromeTraceJson(des_rec);
    const std::string inl_json = obs::chromeTraceJson(inl_rec);
    EXPECT_EQ(des_rec.dropped(), 0);
    EXPECT_TRUE(des_json == inl_json)
        << "discrete-event " << des_json.size() << " bytes vs inline "
        << inl_json.size();
    EXPECT_NE(des_json.find("tx_backoff"), std::string::npos);
}

TEST(Sim, ScalesFarBeyondTheThreadPoolCap)
{
    // 256 cameras — 4x the thread pool's ceiling — on one event loop.
    // Counting mode keeps it exact: every verdict byte accounted.
    const Pipeline fa = buildFaPipeline(nominalFaMeasurements());
    FleetOptions opts;
    opts.pace_stages = false;
    opts.pace_link = false;
    opts.gating = GatingMode::None;
    opts.trace_fps = 30.0;
    opts.epoch_capacity = 4;
    CameraFleet fleet(backscatterUplink(), opts);
    const int n = 256;
    for (int i = 0; i < n; ++i) {
        FleetCamera cam("wisp" + std::to_string(i), fa,
                        PipelineConfig::full(fa, Impl::Asic, 3));
        cam.frames = 20;
        fleet.addCamera(std::move(cam));
    }
    RunOptions ro;
    ro.mode = ExecutionMode::DiscreteEvent;
    const FleetRunReport rep = fleet.run(ro);
    ASSERT_EQ(rep.cameras.size(), static_cast<size_t>(n));
    for (const FleetCameraReport &cam : rep.cameras) {
        EXPECT_EQ(cam.runtime.delivered_frames, 20);
        EXPECT_TRUE(cam.link.released);
    }
    EXPECT_DOUBLE_EQ(rep.uplink_bytes.b(), 256.0 * 20.0);
    EXPECT_TRUE(rep.ledger.consistent());
}

} // namespace
} // namespace incam
