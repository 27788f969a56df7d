/**
 * @file
 * Tests for the fleet layer: the SharedLink arbiter's share policies,
 * the CameraFleet runtime in both execution shapes, the analytical
 * fleet model, and the fleet-level configuration optimizer.
 *
 * Like test_runtime.cc, timing assertions appear only where the
 * pacing makes long-run rates or a wake instant exact, and carry
 * generous tolerances; everything else asserts counts, bytes and energies,
 * which are exact arithmetic and survive the sanitizer CI jobs at
 * INCAM_THREADS = 1, 2 and 8.
 */

#include <atomic>
#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "core/fleet_model.hh"
#include "fa/scenario.hh"
#include "fleet/fleet.hh"
#include "runtime/uplink.hh"
#include "sim/clock.hh"
#include "vr/scenario.hh"

namespace incam {
namespace {

/** Relative-error helper. */
double
relError(double measured, double expected)
{
    return std::abs(measured - expected) / expected;
}

/** The fleet's one-serial-loop-per-camera shape. */
RunOptions
perCamera()
{
    RunOptions ro;
    ro.mode = ExecutionMode::ThreadPerCamera;
    return ro;
}

/** A link whose numbers are easy to reason about in tests. */
NetworkLink
testLink(double bytes_per_sec)
{
    NetworkLink l;
    l.name = "test link";
    l.bandwidth = Bandwidth::bytesPerSec(bytes_per_sec);
    l.energy_per_bit = Energy::nanojoules(1.0);
    return l;
}

/**
 * A one-block synthetic pipeline: 1000-byte source, a 10 ms block
 * (100 FPS) that reduces frames to 100 bytes. cut=0 streams raw,
 * cut=1 computes then ships the reduction.
 */
Pipeline
reducerPipeline()
{
    Pipeline p("reducer", DataSize::bytes(1000));
    Block reduce("Reduce", /*optional=*/false, DataSize::bytes(100));
    reduce.addImpl(Impl::Asic,
                   {Time::milliseconds(10), Energy::nanojoules(50)});
    p.add(reduce);
    return p;
}

// ---------------------------------------------------------------------
// SharedLink arbitration
// ---------------------------------------------------------------------

TEST(SharedLink, FairSplitBetweenBackloggedEndpoints)
{
    // 200 kB/s medium, 100-byte grants: 2000 grants/s aggregate, so
    // two backlogged endpoints should interleave ~1:1.
    SharedLink::Options opts;
    opts.policy = SharePolicy::Fair;
    SharedLink link(testLink(200e3), opts);
    const int a = link.addEndpoint("a");
    const int b = link.addEndpoint("b");

    std::atomic<int64_t> a_done{0};
    std::atomic<int64_t> a_at_b_finish{-1};
    const int64_t b_grants = 150;
    std::thread ta([&] {
        for (int64_t i = 0; i < 400; ++i) {
            link.acquire(a, 100.0);
            a_done.fetch_add(1);
            if (a_at_b_finish.load() >= 0) {
                break; // b finished; the split has been sampled
            }
        }
        link.release(a);
    });
    for (int64_t i = 0; i < b_grants; ++i) {
        link.acquire(b, 100.0);
    }
    a_at_b_finish.store(a_done.load());
    link.release(b);
    ta.join();

    // While both were backlogged, a's progress tracked b's 1:1.
    EXPECT_GT(a_at_b_finish.load(), b_grants / 2);
    EXPECT_LT(a_at_b_finish.load(), b_grants * 2);

    const auto rep = link.report();
    EXPECT_TRUE(rep[static_cast<size_t>(a)].released);
    EXPECT_TRUE(rep[static_cast<size_t>(b)].released);
    EXPECT_EQ(rep[static_cast<size_t>(b)].grants, b_grants);
    EXPECT_DOUBLE_EQ(rep[static_cast<size_t>(b)].bytes.b(),
                     static_cast<double>(b_grants) * 100.0);
}

TEST(SharedLink, WeightedSplitFollowsWeights)
{
    SharedLink::Options opts;
    opts.policy = SharePolicy::Weighted;
    SharedLink link(testLink(200e3), opts);
    const int heavy = link.addEndpoint("heavy", 3.0);
    const int light = link.addEndpoint("light", 1.0);

    std::atomic<int64_t> heavy_done{0};
    std::atomic<bool> stop{false};
    const int64_t light_grants = 100;
    std::thread th([&] {
        for (int64_t i = 0; i < 1000 && !stop.load(); ++i) {
            link.acquire(heavy, 100.0);
            heavy_done.fetch_add(1);
        }
        link.release(heavy);
    });
    for (int64_t i = 0; i < light_grants; ++i) {
        link.acquire(light, 100.0);
    }
    const int64_t heavy_at_finish = heavy_done.load();
    stop.store(true);
    link.release(light);
    th.join();

    // 3:1 weights -> heavy completed ~3x light's grants meanwhile.
    const double ratio = static_cast<double>(heavy_at_finish) /
                         static_cast<double>(light_grants);
    EXPECT_GT(ratio, 1.8);
    EXPECT_LT(ratio, 4.5);
}

TEST(SharedLink, StrictPriorityStarvesLowTierUnderBacklog)
{
    // Two backlogged high-priority senders keep the waiter queue
    // non-empty at every grant boundary, so the low-priority endpoint
    // almost never wins the medium while they run.
    SharedLink::Options opts;
    opts.policy = SharePolicy::StrictPriority;
    SharedLink link(testLink(200e3), opts);
    const int h1 = link.addEndpoint("h1", 2.0);
    const int h2 = link.addEndpoint("h2", 2.0);
    const int low = link.addEndpoint("low", 1.0);

    const int64_t high_grants = 150;
    std::atomic<int64_t> low_done{0};
    std::atomic<bool> stop{false};
    std::thread tl([&] {
        while (!stop.load()) {
            link.acquire(low, 100.0);
            low_done.fetch_add(1);
        }
        link.release(low);
    });
    std::thread t2([&] {
        for (int64_t i = 0; i < high_grants; ++i) {
            link.acquire(h2, 100.0);
        }
        link.release(h2);
    });
    for (int64_t i = 0; i < high_grants; ++i) {
        link.acquire(h1, 100.0);
    }
    link.release(h1);
    t2.join();
    const int64_t low_at_finish = low_done.load();
    stop.store(true);
    tl.join();

    // The low tier saw at most a small leak of the 300 high grants'
    // worth of medium time.
    EXPECT_LT(low_at_finish, high_grants / 2);
}

TEST(SharedLink, BankCarriesDrainBetweenFramesUpToBurst)
{
    // On a VirtualClock the paced path is exact. An endpoint keeps its
    // share after its bytes are through; what drains until its next
    // acquire, up to a bank of two frames (200 B), covers its next
    // frames.
    sim::VirtualClock clk;
    SharedLink::Options opts;
    opts.clock = &clk;
    SharedLink link(testLink(1000.0), opts);
    const int e = link.addEndpoint("cam");
    link.start();

    EXPECT_DOUBLE_EQ(link.acquire(e, 100.0).nj(), 100.0 * 8.0);
    EXPECT_DOUBLE_EQ(clk.now(), 0.1);
    clk.sleepUntil(1.1); // idle 1 s: the bank fills to 200 B, no more
    EXPECT_DOUBLE_EQ(link.acquire(e, 100.0).nj(), 100.0 * 8.0);
    EXPECT_DOUBLE_EQ(link.acquire(e, 100.0).nj(), 100.0 * 8.0);
    EXPECT_DOUBLE_EQ(clk.now(), 1.1); // both came from the bank
    EXPECT_DOUBLE_EQ(link.acquire(e, 100.0).nj(), 100.0 * 8.0);
    EXPECT_NEAR(clk.now(), 1.2, 1e-12); // the bank was empty
    link.release(e);
}

TEST(SharedLink, BankKeepsTheShareUntilRelease)
{
    sim::VirtualClock clk;
    SharedLink::Options opts;
    opts.clock = &clk;
    SharedLink link(testLink(1000.0), opts);
    const int a = link.addEndpoint("a");
    const int b = link.addEndpoint("b");
    link.start();

    link.acquire(a, 100.0); // alone: through at 0.1, then banking
    link.acquire(b, 100.0); // shares with a's bank at 500 B/s
    EXPECT_NEAR(clk.now(), 0.3, 1e-12);
    link.release(a); // a's bank stops draining
    link.acquire(b, 100.0); // b alone at 1000 B/s
    EXPECT_NEAR(clk.now(), 0.4, 1e-12);
    link.release(b);
}

TEST(SharedLink, WaiterWakesWhenAnotherBankFills)
{
    // A departure no acquire waits for still speeds the survivors: a's
    // bank fills at 0.5 and b drains alone after it, so b's frame is
    // through at 1.3, not at 2.1 (its departure under the sharing in
    // force when it was submitted).
    sim::VirtualClock clk;
    SharedLink::Options opts;
    opts.clock = &clk;
    SharedLink link(testLink(1000.0), opts);
    const int a = link.addEndpoint("a");
    const int b = link.addEndpoint("b");
    link.start();

    link.acquire(a, 100.0); // through at 0.1, then banking 200 B
    const Energy e = link.acquire(b, 1000.0); // 200 B at 500 B/s, then
                                              // 800 B at 1000 B/s
    EXPECT_NEAR(clk.now(), 1.3, 1e-12);
    EXPECT_NEAR(e.nj(), 1000.0 * 8.0, 1e-6);
    link.release(a);
    link.release(b);
}

TEST(SharedLink, WaiterWakesWhenAnotherEndpointLeavesTheShare)
{
    // On the wall clock, b waits on the condition variable for its
    // departure at 0.3, sharing with a's bank. At 0.15 a's bank covers
    // a 10 B frame, a's share ends 5 B later, and b is through at 0.23
    // unless nothing wakes it before 0.3. One model second takes 5 s,
    // so host jitter stays well inside the margin.
    sim::WallClock clk;
    SharedLink::Options opts;
    opts.time_scale = 5.0;
    opts.clock = &clk;
    SharedLink link(testLink(1000.0), opts);
    const int a = link.addEndpoint("a");
    const int b = link.addEndpoint("b");
    link.start();

    link.acquire(a, 100.0); // through at 0.1, then banking 200 B
    double b_done = 0.0;
    std::thread tb([&] {
        link.acquire(b, 100.0);
        b_done = link.traceTime().sec();
    });
    clk.sleepUntil(clk.now() + (0.15 - link.traceTime().sec()) * 5.0);
    link.acquire(a, 10.0);
    tb.join();
    EXPECT_LT(b_done, 0.265);
    link.release(a);
    link.release(b);
}

TEST(SharedLink, CountingModeAccountsWithoutPacing)
{
    SharedLink::Options opts;
    opts.pace = false;
    SharedLink link(testLink(10.0), opts); // absurdly slow if paced
    const int e = link.addEndpoint("only");
    for (int i = 0; i < 1000; ++i) {
        link.acquire(e, 50.0);
    }
    link.release(e);
    const auto rep = link.report();
    EXPECT_EQ(rep[0].grants, 1000);
    EXPECT_DOUBLE_EQ(rep[0].bytes.b(), 50e3);
    EXPECT_TRUE(rep[0].released);
}

// ---------------------------------------------------------------------
// CameraFleet runtime
// ---------------------------------------------------------------------

TEST(Fleet, CountingModeIsExactAcrossMixedFaVrFleet)
{
    // The two case studies side by side under one 25 GbE budget, in
    // counting mode: gating and energy arithmetic must be exact.
    const Pipeline fa = buildFaPipeline(nominalFaMeasurements());
    const Pipeline vr = buildVrPipeline(VrPipelineModel{});
    const NetworkLink link = twentyFiveGbE();

    FleetOptions opts;
    opts.pace_stages = false;
    opts.pace_link = false;
    opts.gating = GatingMode::Model;
    CameraFleet fleet(link, opts);

    auto addFa = [&](const char *name, int cut) {
        FleetCamera cam(name, fa, PipelineConfig::full(fa, Impl::Asic, cut));
        cam.frames = 200;
        fleet.addCamera(std::move(cam));
    };
    addFa("fa-raw", 0);
    addFa("fa-crop", 2);
    addFa("fa-verdict", 3);
    {
        FleetCamera cam("vr-rig", vr,
                        PipelineConfig::full(vr, Impl::Fpga, 4));
        cam.frames = 50;
        fleet.addCamera(std::move(cam));
    }

    const FleetRunReport rep = fleet.run(perCamera());
    ASSERT_EQ(rep.cameras.size(), 4u);

    // fa-raw: nothing gates, every frame crosses raw.
    EXPECT_EQ(rep.cameras[0].runtime.delivered_frames, 200);
    // fa-crop: motion (0.30) then face detect (0.05): 200 -> 60 -> 3.
    EXPECT_EQ(rep.cameras[1].runtime.delivered_frames, 3);
    // fa-verdict: the same funnel, then auth passes everything.
    EXPECT_EQ(rep.cameras[2].runtime.delivered_frames, 3);
    // vr-rig: pure transforms, nothing gates.
    EXPECT_EQ(rep.cameras[3].runtime.delivered_frames, 50);

    // Per-camera energy matches the duty-scaled analytical report.
    for (int i = 0; i < 3; ++i) {
        const PipelineEvaluator eval(fa, link);
        const PipelineConfig cfg = PipelineConfig::full(
            fa, Impl::Asic, i == 0 ? 0 : (i == 1 ? 2 : 3));
        const double expected = eval.evaluateEnergy(cfg).total().j();
        EXPECT_NEAR(
            rep.cameras[static_cast<size_t>(i)].runtime
                    .joules_per_frame.j() / expected,
            1.0, 0.03)
            << rep.cameras[static_cast<size_t>(i)].name;
    }

    // The arbiter accounted exactly what each camera delivered.
    for (const FleetCameraReport &cam : rep.cameras) {
        EXPECT_DOUBLE_EQ(cam.link.bytes.b(),
                         cam.runtime.link.bytes_sent.b());
        EXPECT_TRUE(cam.link.released);
    }
}

TEST(Fleet, MeasuredFpsTracksFleetModel)
{
    // Three raw-streaming FA cameras saturate Wi-Fi: the model says
    // each gets a third of goodput, 93.75 FPS. Count-paced, the
    // debt-based arbiter should land close even on a loaded host.
    const Pipeline fa = buildFaPipeline(nominalFaMeasurements());
    const NetworkLink link = wifiUplink();

    FleetOptions opts;
    opts.gating = GatingMode::None;
    CameraFleet fleet(link, opts);
    for (int i = 0; i < 3; ++i) {
        FleetCamera cam("cam" + std::to_string(i), fa,
                        PipelineConfig::full(fa, Impl::Asic, 0));
        cam.frames = 30;
        fleet.addCamera(std::move(cam));
    }

    const FleetModelReport model =
        fleetReport(fleet.modelCameras(), link, opts.policy);
    ASSERT_EQ(model.cameras.size(), 3u);
    for (const FleetShare &share : model.cameras) {
        EXPECT_NEAR(share.fps, 281.25 / 3.0, 1e-9);
        EXPECT_TRUE(share.link_bound);
    }

    const FleetRunReport rep = fleet.run(perCamera());
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(rep.cameras[i].runtime.delivered_frames, 30);
        EXPECT_LT(relError(rep.cameras[i].runtime.model_fps,
                           model.cameras[i].fps),
                  0.25)
            << rep.cameras[i].name << " measured "
            << rep.cameras[i].runtime.model_fps << " vs "
            << model.cameras[i].fps;
    }
    EXPECT_LT(relError(rep.aggregate_model_fps, model.aggregate_fps),
              0.20);
}

TEST(Fleet, ClosingOneCameraFreesItsShareWithoutStallingSiblings)
{
    // Camera A emits 25 frames and closes; camera B keeps going. Every
    // frame of both must cross, and B must speed up once A's weight
    // leaves the link: B's overall rate lands well above the contended
    // half-share and at most at the solo rate.
    const Pipeline fa = buildFaPipeline(nominalFaMeasurements());
    const NetworkLink link = wifiUplink(); // 281.25 FPS at raw frames

    FleetOptions opts;
    opts.gating = GatingMode::None;
    CameraFleet fleet(link, opts);

    FleetCamera a("short-lived", fa,
                  PipelineConfig::full(fa, Impl::Asic, 0));
    a.frames = 25;
    fleet.addCamera(std::move(a));

    FleetCamera b("long-lived", fa,
                  PipelineConfig::full(fa, Impl::Asic, 0));
    b.frames = 160;
    fleet.addCamera(std::move(b));

    const FleetRunReport rep = fleet.run(perCamera());
    const FleetCameraReport &ra = rep.cameras[0];
    const FleetCameraReport &rb = rep.cameras[1];

    // Exact drain: every emitted frame of both cameras crossed.
    EXPECT_EQ(ra.runtime.source_frames, 25);
    EXPECT_EQ(ra.runtime.delivered_frames, 25);
    EXPECT_EQ(rb.runtime.source_frames, 160);
    EXPECT_EQ(rb.runtime.delivered_frames, 160);
    EXPECT_TRUE(ra.link.released);
    EXPECT_TRUE(rb.link.released);

    // B ran contended (140.6 FPS) for A's 25 frames, solo (281.25)
    // after: its average must clearly beat the contended share.
    const double solo = 281.25;
    EXPECT_GT(rb.runtime.model_fps, 0.62 * solo);
    EXPECT_LT(rb.runtime.model_fps, 1.20 * solo);
}

TEST(Fleet, ScalesToSixtyFourInlineCameras)
{
    // One serial loop per camera: a 64-camera swarm fits the pool.
    const Pipeline fa = buildFaPipeline(nominalFaMeasurements());
    FleetOptions opts;
    opts.pace_stages = false;
    opts.pace_link = false;
    opts.gating = GatingMode::None;
    CameraFleet fleet(backscatterUplink(), opts);
    for (int i = 0; i < 64; ++i) {
        FleetCamera cam("wisp" + std::to_string(i), fa,
                        PipelineConfig::full(fa, Impl::Asic, 3));
        cam.frames = 40;
        fleet.addCamera(std::move(cam));
    }
    const FleetRunReport rep = fleet.run(perCamera());
    ASSERT_EQ(rep.cameras.size(), 64u);
    for (const FleetCameraReport &cam : rep.cameras) {
        EXPECT_EQ(cam.runtime.delivered_frames, 40);
        EXPECT_TRUE(cam.link.released);
    }
    // 64 cameras x 40 one-byte verdict uploads.
    EXPECT_DOUBLE_EQ(rep.uplink_bytes.b(), 64.0 * 40.0);
}

TEST(Fleet, InstancesAreSingleUse)
{
    const Pipeline p = reducerPipeline();
    FleetOptions opts;
    opts.pace_stages = false;
    opts.pace_link = false;
    CameraFleet fleet(testLink(1e6), opts);
    FleetCamera cam("solo", p, PipelineConfig::full(p, Impl::Asic, 1));
    cam.frames = 4;
    fleet.addCamera(std::move(cam));
    (void)fleet.run(perCamera());
    EXPECT_DEATH((void)fleet.run(perCamera()), "single-use");
}

TEST(Fleet, SoloShapesPanic)
{
    // Inline and ThreadedStages are solo-pipeline shapes: a fleet runs
    // one inline loop per camera (ThreadPerCamera) or DiscreteEvent.
    const Pipeline p = reducerPipeline();
    for (const ExecutionMode mode :
         {ExecutionMode::Inline, ExecutionMode::ThreadedStages}) {
        FleetOptions opts;
        opts.pace_stages = false;
        opts.pace_link = false;
        CameraFleet fleet(testLink(1e6), opts);
        FleetCamera cam("solo", p, PipelineConfig::full(p, Impl::Asic, 1));
        cam.frames = 4;
        fleet.addCamera(std::move(cam));
        RunOptions ro;
        ro.mode = mode;
        EXPECT_DEATH((void)fleet.run(ro), "solo-pipeline only");
    }
}

// ---------------------------------------------------------------------
// Analytical fleet model
// ---------------------------------------------------------------------

TEST(FleetModel, WaterfillGivesResidualToBackloggedCameras)
{
    const Pipeline p = reducerPipeline();
    const NetworkLink link = testLink(200e3);

    std::vector<FleetCameraModel> cams(2);
    cams[0].name = "reduced";
    cams[0].pipeline = &p;
    cams[0].config = PipelineConfig::full(p, Impl::Asic, 1);
    cams[1].name = "raw";
    cams[1].pipeline = &p;
    cams[1].config = PipelineConfig::full(p, Impl::Asic, 0);

    const FleetModelReport rep =
        fleetReport(cams, link, SharePolicy::Fair);
    // "reduced" demands 100 FPS x 100 B = 10 kB/s, under its fair
    // share; it keeps its demand and is compute-bound.
    EXPECT_NEAR(rep.cameras[0].allocated_bps, 10e3, 1e-6);
    EXPECT_NEAR(rep.cameras[0].fps, 100.0, 1e-9);
    EXPECT_FALSE(rep.cameras[0].link_bound);
    // "raw" soaks up the 190 kB/s residual: 190 FPS at 1000 B.
    EXPECT_NEAR(rep.cameras[1].allocated_bps, 190e3, 1e-6);
    EXPECT_NEAR(rep.cameras[1].fps, 190.0, 1e-9);
    EXPECT_TRUE(rep.cameras[1].link_bound);
    EXPECT_NEAR(rep.aggregate_fps, 290.0, 1e-9);
    EXPECT_NEAR(rep.utilization, 1.0, 1e-9);
}

TEST(FleetModel, WeightedSharesScaleWithWeight)
{
    const Pipeline p = reducerPipeline();
    std::vector<FleetCameraModel> cams(2);
    for (size_t i = 0; i < 2; ++i) {
        cams[i].name = "cam";
        cams[i].pipeline = &p;
        cams[i].config = PipelineConfig::full(p, Impl::Asic, 0);
    }
    cams[0].weight = 3.0;
    const FleetModelReport rep =
        fleetReport(cams, testLink(100e3), SharePolicy::Weighted);
    EXPECT_NEAR(rep.cameras[0].fps, 75.0, 1e-9);
    EXPECT_NEAR(rep.cameras[1].fps, 25.0, 1e-9);
}

TEST(FleetModel, StrictPriorityAllocatesInTiers)
{
    const Pipeline p = reducerPipeline();
    std::vector<FleetCameraModel> cams(3);
    for (size_t i = 0; i < 3; ++i) {
        cams[i].name = "cam";
        cams[i].pipeline = &p;
        cams[i].config = PipelineConfig::full(p, Impl::Asic, 0);
    }
    cams[0].weight = 2.0; // high tier
    cams[1].weight = 2.0;
    cams[2].weight = 1.0; // starved tier
    const FleetModelReport rep =
        fleetReport(cams, testLink(100e3), SharePolicy::StrictPriority);
    EXPECT_NEAR(rep.cameras[0].fps, 50.0, 1e-9);
    EXPECT_NEAR(rep.cameras[1].fps, 50.0, 1e-9);
    EXPECT_NEAR(rep.cameras[2].fps, 0.0, 1e-9);
}

TEST(FleetModel, ZeroByteCutIsNeverLinkBound)
{
    // A fully-gating filter before the cut: zero bytes cross, so the
    // camera is compute-bound no matter how contended the link is.
    Pipeline p("alarm-only", DataSize::bytes(1000));
    Block alarm("Alarm", /*optional=*/false, DataSize::bytes(0));
    alarm.addImpl(Impl::Asic,
                  {Time::milliseconds(5), Energy::nanojoules(10)});
    p.add(alarm);

    std::vector<FleetCameraModel> cams(2);
    cams[0].name = "alarm";
    cams[0].pipeline = &p;
    cams[0].config = PipelineConfig::full(p, Impl::Asic, 1);
    cams[1].name = "raw";
    cams[1].pipeline = &p;
    cams[1].config = PipelineConfig::full(p, Impl::Asic, 0);

    const FleetModelReport rep =
        fleetReport(cams, testLink(50e3), SharePolicy::Fair);
    EXPECT_NEAR(rep.cameras[0].fps, 200.0, 1e-9); // 1/5ms, no link term
    EXPECT_FALSE(rep.cameras[0].link_bound);
    EXPECT_NEAR(rep.cameras[0].allocated_bps, 0.0, 1e-12);
    // The raw camera gets the whole link.
    EXPECT_NEAR(rep.cameras[1].fps, 50.0, 1e-9);
}

// ---------------------------------------------------------------------
// Fleet optimizer
// ---------------------------------------------------------------------

TEST(FleetOptimizer, MovesCamerasOffTheLinkUnderContention)
{
    // Solo, raw streaming wins (200 FPS beats 100 FPS compute). Four
    // cameras sharing the same link must not all stream raw: the
    // optimizer should keep one raw and compute on the rest.
    const Pipeline p = reducerPipeline();
    const NetworkLink link = testLink(200e3);

    const PipelineOptimizer solo(p, link);
    OptimizerGoal solo_goal;
    solo_goal.kind = OptimizerGoal::Kind::MaxThroughput;
    EXPECT_EQ(solo.best(solo_goal).config.cut, 0);

    std::vector<FleetCameraModel> cams(4);
    for (size_t i = 0; i < 4; ++i) {
        cams[i].name = "cam" + std::to_string(i);
        cams[i].pipeline = &p;
        cams[i].config = PipelineConfig::full(p, Impl::Asic, 0);
    }
    const FleetOptimizer opt(cams, link, SharePolicy::Fair);
    FleetOptimizerGoal goal;
    goal.kind = FleetOptimizerGoal::Kind::MaxAggregateFps;
    const FleetChoice choice = opt.best(goal);

    // All-raw yields 4 x 50 = 200 aggregate; computing on three and
    // streaming one raw yields 3 x 100 + 170 = 470.
    const FleetModelReport naive = fleetReport(cams, link,
                                               SharePolicy::Fair);
    EXPECT_NEAR(naive.aggregate_fps, 200.0, 1e-9);
    EXPECT_GT(choice.report.aggregate_fps, 450.0);
    int raw_count = 0;
    for (const PipelineConfig &cfg : choice.configs) {
        raw_count += cfg.cut == 0 ? 1 : 0;
    }
    EXPECT_EQ(raw_count, 1);

    // Deterministic: a second search lands on the identical choice.
    const FleetChoice again = opt.best(goal);
    ASSERT_EQ(again.configs.size(), choice.configs.size());
    for (size_t i = 0; i < choice.configs.size(); ++i) {
        EXPECT_EQ(again.configs[i].toString(p),
                  choice.configs[i].toString(p));
    }
}

TEST(FleetOptimizer, ReportsInfeasibleFloors)
{
    const Pipeline p = reducerPipeline();
    const NetworkLink link = testLink(200e3);
    std::vector<FleetCameraModel> cams(4);
    for (size_t i = 0; i < 4; ++i) {
        cams[i].name = "cam" + std::to_string(i);
        cams[i].pipeline = &p;
        cams[i].config = PipelineConfig::full(p, Impl::Asic, 0);
    }
    const FleetOptimizer opt(cams, link, SharePolicy::Fair);

    FleetOptimizerGoal ok;
    ok.kind = FleetOptimizerGoal::Kind::MaxAggregateFps;
    ok.per_camera_min_fps = 60.0;
    EXPECT_TRUE(opt.best(ok).feasible);

    FleetOptimizerGoal impossible;
    impossible.kind = FleetOptimizerGoal::Kind::MaxAggregateFps;
    impossible.per_camera_min_fps = 150.0;
    EXPECT_FALSE(opt.best(impossible).feasible);
}

} // namespace
} // namespace incam
