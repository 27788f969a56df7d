/**
 * @file
 * Tests for the trace subsystem: schedule construction and lookup,
 * generator determinism (the identical-seed contract every adaptive
 * test builds on), the security-video content bridge, and a
 * trace-driven SharedLink's pacing and pricing.
 *
 * Everything except the one paced SharedLink test is pure arithmetic
 * — exact comparisons, immune to host load.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/network.hh"
#include "runtime/uplink.hh"
#include "trace/trace.hh"
#include "workload/video.hh"

namespace incam {
namespace {

NetworkLink
makeLink(const std::string &name, double bytes_per_sec,
         double nj_per_bit)
{
    NetworkLink l;
    l.name = name;
    l.bandwidth = Bandwidth::bytesPerSec(bytes_per_sec);
    l.energy_per_bit = Energy::nanojoules(nj_per_bit);
    return l;
}

TEST(NetworkTrace, PiecewiseLookupClampsAndWraps)
{
    std::vector<LinkSegment> segs;
    segs.push_back({Time::seconds(0.0), makeLink("a", 100.0, 1.0)});
    segs.push_back({Time::seconds(10.0), makeLink("b", 200.0, 2.0)});
    segs.push_back({Time::seconds(20.0), makeLink("c", 300.0, 3.0)});
    NetworkTrace t = NetworkTrace::piecewise("abc", std::move(segs));

    EXPECT_EQ(t.segmentCount(), 3u);
    EXPECT_EQ(t.at(Time::seconds(0.0)).name, "a");
    EXPECT_EQ(t.at(Time::seconds(9.999)).name, "a");
    // A boundary belongs to the segment it starts.
    EXPECT_EQ(t.at(Time::seconds(10.0)).name, "b");
    EXPECT_EQ(t.at(Time::seconds(25.0)).name, "c");
    // Past the end clamps to the final state...
    EXPECT_EQ(t.at(Time::seconds(1e9)).name, "c");
    // ...or wraps when periodic. Last segment runs to 30 s (the mean
    // of the earlier segment lengths extends it).
    EXPECT_DOUBLE_EQ(t.duration().sec(), 30.0);
    t.setPeriodic();
    EXPECT_EQ(t.at(Time::seconds(35.0)).name, "a");
    EXPECT_EQ(t.at(Time::seconds(70.5)).name, "b");
    // Negative times clamp to the schedule start.
    EXPECT_EQ(NetworkTrace::stationary(makeLink("s", 1.0, 1.0))
                  .at(Time::seconds(-5.0))
                  .name,
              "s");
}

TEST(NetworkTrace, StepsScaleBandwidthAndPerBitEnergy)
{
    const NetworkLink base = makeLink("base", 1000.0, 10.0);
    const NetworkTrace t =
        NetworkTrace::steps(base, {1.0, 0.25, 0.5}, Time::seconds(5.0));
    ASSERT_EQ(t.segmentCount(), 3u);
    EXPECT_DOUBLE_EQ(t.duration().sec(), 15.0);
    const NetworkLink &congested = t.at(Time::seconds(7.0));
    EXPECT_DOUBLE_EQ(congested.bandwidth.bytesPerSecond(), 250.0);
    // Congestion moves fewer bits for the same radio-on time.
    EXPECT_DOUBLE_EQ(congested.energy_per_bit.nj(), 40.0);
    EXPECT_DOUBLE_EQ(t.segmentDuration(1).sec(), 5.0);
}

TEST(NetworkTrace, GilbertElliottIsSeedDeterministic)
{
    const NetworkLink good = makeLink("good", 5000.0, 1.0);
    const NetworkLink bad = makeLink("bad", 100.0, 20.0);
    GilbertElliottParams p;
    p.p_good_to_bad = 0.2;
    p.p_bad_to_good = 0.4;
    p.step = Time::seconds(1.0);
    p.duration = Time::seconds(300.0);
    p.seed = 42;

    const NetworkTrace a = NetworkTrace::gilbertElliott(good, bad, p);
    const NetworkTrace b = NetworkTrace::gilbertElliott(good, bad, p);
    ASSERT_EQ(a.segmentCount(), b.segmentCount());
    for (size_t i = 0; i < a.segmentCount(); ++i) {
        // Bit-identical schedules: same starts, same states.
        EXPECT_EQ(a.segment(i).start.sec(), b.segment(i).start.sec());
        EXPECT_EQ(a.segment(i).link.bandwidth.bytesPerSecond(),
                  b.segment(i).link.bandwidth.bytesPerSecond());
    }
    // The chain actually visits both states over 300 steps.
    EXPECT_GT(a.segmentCount(), 4u);
    // Adjacent segments always alternate (same-state runs merge).
    for (size_t i = 1; i < a.segmentCount(); ++i) {
        EXPECT_NE(a.segment(i).link.name, a.segment(i - 1).link.name);
    }

    GilbertElliottParams other = p;
    other.seed = 43;
    const NetworkTrace c =
        NetworkTrace::gilbertElliott(good, bad, other);
    bool differs = c.segmentCount() != a.segmentCount();
    for (size_t i = 0; !differs && i < a.segmentCount(); ++i) {
        differs = a.segment(i).start.sec() != c.segment(i).start.sec();
    }
    EXPECT_TRUE(differs) << "different seeds produced the same fade";
}

TEST(NetworkTrace, HarvestDutyCycleFollowsTheEnergyChain)
{
    const NetworkLink on = backscatterUplink();
    HarvestDutyParams p;
    p.distance_m = 3.0;
    p.duration = Time::seconds(400.0);
    const NetworkTrace t = NetworkTrace::harvestDutyCycle(on, p);

    // Reproduce the on/off durations from the same analytical chain.
    const Power harvested = harvestedPower(p.harvester, p.distance_m);
    StorageCapacitor cap(p.capacitor_farads, p.v_full, p.v_cutoff);
    const double on_s = cap.usableCapacity().j() /
                        (p.tx_power.w() - harvested.w());
    const double off_s = cap.rechargeTime(harvested).sec();

    ASSERT_GE(t.segmentCount(), 3u);
    EXPECT_TRUE(t.periodic());
    EXPECT_EQ(t.segment(0).link.name, on.name);
    EXPECT_DOUBLE_EQ(t.segment(1).start.sec(), on_s);
    EXPECT_DOUBLE_EQ(t.segment(2).start.sec(), on_s + off_s);
    // The off state is degraded, not dead.
    const NetworkLink &off = t.segment(1).link;
    EXPECT_GT(off.bandwidth.bytesPerSecond(), 0.0);
    EXPECT_LT(off.bandwidth.bytesPerSecond(),
              on.bandwidth.bytesPerSecond());
}

TEST(NetworkTrace, AverageLinkIsTimeWeighted)
{
    std::vector<LinkSegment> segs;
    segs.push_back({Time::seconds(0.0), makeLink("x", 100.0, 4.0)});
    segs.push_back({Time::seconds(30.0), makeLink("y", 400.0, 1.0)});
    // Last segment extends to 60 s: 30 s of each state.
    const NetworkTrace t = NetworkTrace::piecewise("xy", segs);
    const NetworkLink avg = t.averageLink();
    EXPECT_DOUBLE_EQ(avg.bandwidth.bytesPerSecond(), 250.0);
    EXPECT_DOUBLE_EQ(avg.energy_per_bit.nj(), 2.5);
}

TEST(ContentTrace, WindowsMatchSecurityVideoTruthExactly)
{
    SecurityVideoConfig cfg;
    cfg.frames = 300;
    cfg.seed = 7;
    const SecurityVideo video(cfg);
    const int window = 50;
    const ContentTrace t = ContentTrace::fromSecurityVideo(
        video, FrameRate::fps(1.0), window);

    ASSERT_EQ(t.segmentCount(), 6u);
    for (size_t s = 0; s < t.segmentCount(); ++s) {
        int moving = 0, faces = 0;
        for (int i = 0; i < window; ++i) {
            const FrameTruth tr =
                video.truth(static_cast<int>(s) * window + i);
            moving += (tr.has_face || tr.ambient_motion) ? 1 : 0;
            faces += tr.has_face ? 1 : 0;
        }
        EXPECT_DOUBLE_EQ(t.segment(s).motion_pass,
                         static_cast<double>(moving) / window);
        if (moving > 0) {
            EXPECT_DOUBLE_EQ(t.segment(s).face_pass,
                             static_cast<double>(faces) / moving);
        }
    }

    // Identical video config => bit-identical content schedule.
    const ContentTrace again = ContentTrace::fromSecurityVideo(
        SecurityVideo(cfg), FrameRate::fps(1.0), window);
    ASSERT_EQ(again.segmentCount(), t.segmentCount());
    for (size_t s = 0; s < t.segmentCount(); ++s) {
        EXPECT_EQ(again.segment(s).motion_pass,
                  t.segment(s).motion_pass);
        EXPECT_EQ(again.segment(s).face_pass, t.segment(s).face_pass);
    }
}

TEST(TraceSharedLink, CountingModePricesAtTheFrameClock)
{
    const NetworkTrace t = NetworkTrace::steps(
        makeLink("base", 1000.0, 10.0), {1.0, 0.5}, Time::seconds(10.0));
    SharedLink::Options opts;
    opts.trace = &t;
    opts.pace = false;
    SharedLink link(t.at(Time{}), opts);
    const int e = link.addEndpoint("cam");

    // Frame pinned at t=2 s: segment 0 pricing, exactly.
    const Energy e0 = link.acquire(e, 100.0, 2.0);
    EXPECT_DOUBLE_EQ(e0.nj(), 100.0 * 8.0 * 10.0);
    // Frame pinned at t=15 s: segment 1 (half bandwidth, 2x price).
    const Energy e1 = link.acquire(e, 100.0, 15.0);
    EXPECT_DOUBLE_EQ(e1.nj(), 100.0 * 8.0 * 20.0);
}

TEST(TraceSharedLink, CountingModeWithoutHintAdvancesOccupancy)
{
    // 1000 B/s for 1 s, then 100 B/s. Three 500-byte frames occupy
    // the timeline back to back: [0,0.5) and [0.5,1.0) in segment 0,
    // then segment 1.
    const NetworkTrace t = NetworkTrace::steps(
        makeLink("base", 1000.0, 1.0), {1.0, 0.1}, Time::seconds(1.0));
    SharedLink::Options opts;
    opts.trace = &t;
    opts.pace = false;
    SharedLink link(t.at(Time{}), opts);
    const int e = link.addEndpoint("cam");
    EXPECT_DOUBLE_EQ(link.acquire(e, 500.0).nj(), 500.0 * 8.0 * 1.0);
    EXPECT_DOUBLE_EQ(link.acquire(e, 500.0).nj(), 500.0 * 8.0 * 1.0);
    EXPECT_DOUBLE_EQ(link.acquire(e, 500.0).nj(), 500.0 * 8.0 * 10.0);
}

TEST(TraceSharedLink, PacedDrainIntegratesAcrossSegments)
{
    // 1000 B/s (1 nJ/bit) for 0.05 trace-s, then 200 B/s (5 nJ/bit).
    // A 60-byte transmission arriving at t=0 drains 50 bytes in the
    // fast state and 10 in the slow one.
    std::vector<LinkSegment> segs;
    segs.push_back({Time::seconds(0.0), makeLink("fast", 1000.0, 1.0)});
    segs.push_back({Time::seconds(0.05), makeLink("slow", 200.0, 5.0)});
    const NetworkTrace t = NetworkTrace::piecewise("fade", segs);

    SharedLink::Options opts;
    opts.trace = &t;
    SharedLink link(t.at(Time{}), opts);
    const int e = link.addEndpoint("cam");
    link.start();
    const Energy en = link.acquire(e, 60.0);
    link.release(e);
    // Start-up jitter can push the transmission start slightly past
    // t=0, shifting a few bytes from fast to slow pricing; the energy
    // must land between all-fast and the exact split + slack.
    const double exact_nj = 50.0 * 8.0 * 1.0 + 10.0 * 8.0 * 5.0;
    EXPECT_GE(en.nj(), 60.0 * 8.0 * 1.0 * 0.999);
    EXPECT_LE(en.nj(), exact_nj * 1.25);
    // The transmission spanned the boundary (or started after it only
    // under absurd start-up delay).
    EXPECT_GE(link.traceTime().sec(), 0.05);
}

} // namespace
} // namespace incam
