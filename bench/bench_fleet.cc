/**
 * @file
 * The fleet model vs the executing fleet, swept over scale and links.
 *
 * For every (link, camera count) point this harness builds a
 * heterogeneous fleet — WISPCam-style FA swarms on backscatter,
 * raw-streaming FA cameras on Wi-Fi, a VR rig with mixed offload cuts
 * on 25 GbE; mixed frame sizes, cuts and weights throughout — and
 * measures it twice against the analytical fleet model:
 *
 *  - a *paced* run (throughput semantics, saturated sources): the sum
 *    of per-camera measured FPS is held against
 *    FleetModelReport::aggregate_fps, and each camera against its
 *    predicted contended share;
 *  - a *counting* run (energy semantics, pacing off): each camera's
 *    measured J per source frame is held against its duty-scaled
 *    analytical prediction.
 *
 * Camera counts sweep 1 / 4 / 16 / 64 — from a solo camera (the
 * arbiter must reduce to a plain goodput pacer) to a 64-camera
 * backscatter swarm and a VR rig sharing one trunk. Frame budgets are
 * proportional to each camera's predicted rate so the fleet stays
 * stationary (everyone finishes together), and time_scale compresses
 * each point to under ~2 s of wall time.
 *
 * A second sweep takes the discrete-event engine far beyond thread
 * scale: 1k / 10k (and 100k in full mode) WISPCam-style cameras on one
 * backscatter uplink, replayed on a single core in model time. Each
 * point runs paced (fluid-fair SimLink; aggregate FPS held against
 * the fleet model within 1.8%) and counting (frame and byte totals
 * exact), and the engine must sustain at least 100k events/s of host
 * throughput — the "100k cameras on one core" claim, gated.
 *
 *   bench_fleet [--quick]
 *
 * Exits non-zero if any point's aggregate FPS strays more than 15%
 * from the model or any camera's energy strays more than 3% — the
 * fleet-model fidelity bar — or if a discrete-event point misses its
 * agreement, exactness or events/s gates. Ends with one BENCH_JSON
 * line for trajectory tracking.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/fleet_model.hh"
#include "core/network.hh"
#include "fa/scenario.hh"
#include "fleet/fleet.hh"
#include "vr/scenario.hh"

using namespace incam;

namespace {

constexpr double kAggFpsTolerance = 0.15;
constexpr double kEnergyTolerance = 0.03;

/** Discrete-event gates: model agreement on the paced run, exact frame
 *  and byte totals on the counting run, and a floor on how fast the
 *  engine replays model time on the host. */
constexpr double kDesFpsTolerance = 0.018;
constexpr double kDesMinEventsPerSec = 1.0e5;

/** One camera blueprint: pipeline + config + weight. */
struct CameraSpec
{
    std::string name;
    const Pipeline *pipeline = nullptr;
    PipelineConfig config;
    double weight = 1.0;
};

/** One swept fleet point and its measured-vs-model outcome. */
struct PointResult
{
    std::string link_name;
    int cameras = 0;
    SharePolicy policy = SharePolicy::Fair;
    double predicted_agg_fps = 0.0;
    double measured_agg_fps = 0.0;
    double max_cam_fps_err = 0.0;
    double max_energy_err = 0.0;
    double time_scale = 1.0;
    double wall_seconds = 0.0;

    double
    aggError() const
    {
        return std::abs(measured_agg_fps - predicted_agg_fps) /
               predicted_agg_fps;
    }

    bool
    within() const
    {
        return aggError() <= kAggFpsTolerance &&
               max_energy_err <= kEnergyTolerance;
    }
};

/** Model, then run, one fleet point in both semantics. */
PointResult
measurePoint(const std::string &link_name, const NetworkLink &link,
             const std::vector<CameraSpec> &specs, SharePolicy policy,
             bool quick)
{
    PointResult res;
    res.link_name = link_name;
    res.cameras = static_cast<int>(specs.size());
    res.policy = policy;

    // ---- model ----
    std::vector<FleetCameraModel> model_cams;
    for (const CameraSpec &s : specs) {
        FleetCameraModel m;
        m.name = s.name;
        m.pipeline = s.pipeline;
        m.config = s.config;
        m.weight = s.weight;
        model_cams.push_back(std::move(m));
    }
    const FleetModelReport model = fleetReport(model_cams, link, policy);
    res.predicted_agg_fps = model.aggregate_fps;

    // ---- paced throughput run ----
    // Frames proportional to each camera's predicted rate keep the
    // contention stationary; time_scale targets a host-friendly
    // per-camera real rate (gentler for wide fleets, which already
    // multiply the arbiter's event rate by N).
    double min_fps = model.cameras[0].fps, max_fps = min_fps;
    for (const FleetShare &share : model.cameras) {
        min_fps = std::min(min_fps, share.fps);
        max_fps = std::max(max_fps, share.fps);
    }
    const double base_frames = quick ? 16.0 : 28.0;
    const double target_real_fps = specs.size() > 16 ? 60.0 : 120.0;
    const double t_model = base_frames / min_fps;
    res.time_scale = max_fps / target_real_fps;

    FleetOptions paced;
    paced.policy = policy;
    paced.gating = GatingMode::None;
    paced.time_scale = res.time_scale;
    CameraFleet fleet(link, paced);
    for (size_t i = 0; i < specs.size(); ++i) {
        FleetCamera cam(specs[i].name, *specs[i].pipeline,
                        specs[i].config);
        cam.weight = specs[i].weight;
        cam.frames = std::max<int64_t>(
            8, static_cast<int64_t>(
                   std::lround(t_model * model.cameras[i].fps)));
        fleet.addCamera(std::move(cam));
    }
    RunOptions per_camera;
    per_camera.mode = ExecutionMode::ThreadPerCamera;
    const FleetRunReport run = fleet.run(per_camera);
    res.measured_agg_fps = run.aggregate_model_fps;
    res.wall_seconds = run.wall_seconds;
    for (size_t i = 0; i < specs.size(); ++i) {
        const double predicted = model.cameras[i].fps;
        const double measured = run.cameras[i].runtime.model_fps;
        res.max_cam_fps_err =
            std::max(res.max_cam_fps_err,
                     std::abs(measured - predicted) / predicted);
    }

    // ---- counting energy run ----
    // Contention changes when frames arrive, never what each frame
    // costs, so energy validates in fast counting mode. 200 frames
    // keeps every FA duty product integral (0.30, 0.30 x 0.05).
    FleetOptions counting;
    counting.policy = policy;
    counting.gating = GatingMode::Model;
    counting.pace_stages = false;
    counting.pace_link = false;
    CameraFleet counting_fleet(link, counting);
    for (const CameraSpec &s : specs) {
        FleetCamera cam(s.name, *s.pipeline, s.config);
        cam.weight = s.weight;
        cam.frames = 200;
        counting_fleet.addCamera(std::move(cam));
    }
    const FleetRunReport counted = counting_fleet.run(per_camera);
    for (size_t i = 0; i < specs.size(); ++i) {
        const double predicted = model.cameras[i].jpf.j();
        if (predicted <= 0.0) {
            continue; // VR all-local: the model prices no energy
        }
        const double measured =
            counted.cameras[i].runtime.joules_per_frame.j();
        res.max_energy_err =
            std::max(res.max_energy_err,
                     std::abs(measured - predicted) / predicted);
    }
    return res;
}

/** One discrete-event scale point and its gate outcomes. */
struct DesPointResult
{
    int cameras = 0;
    double predicted_agg_fps = 0.0;
    double measured_agg_fps = 0.0;
    double model_seconds = 0.0; ///< paced run's simulated span
    int64_t events = 0;         ///< engine events, both runs
    double host_seconds = 0.0;  ///< host wall across both runs
    bool exact = false;         ///< counting totals frame/byte exact

    double
    aggError() const
    {
        return std::abs(measured_agg_fps - predicted_agg_fps) /
               predicted_agg_fps;
    }

    double
    eventsPerSec() const
    {
        return host_seconds > 0.0
                   ? static_cast<double>(events) / host_seconds
                   : 0.0;
    }

    bool
    within() const
    {
        return aggError() <= kDesFpsTolerance && exact &&
               eventsPerSec() >= kDesMinEventsPerSec;
    }
};

/**
 * One discrete-event point: an n-camera WISPCam swarm (two crop
 * geometries, fair share) on one backscatter uplink, replayed in model
 * time on a single core. The paced run is held against the fleet
 * model's byte-fair waterfill; the counting run must account every
 * frame and every uplink byte exactly; both runs together must clear
 * the events/s floor.
 */
DesPointResult
measureDesPoint(int n, const Pipeline &fa_large,
                const Pipeline &fa_small, bool quick)
{
    DesPointResult res;
    res.cameras = n;

    std::vector<CameraSpec> specs;
    specs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        CameraSpec s;
        s.name = "wisp" + std::to_string(i);
        s.pipeline = i % 2 == 0 ? &fa_large : &fa_small;
        s.config = PipelineConfig::full(*s.pipeline, Impl::Asic, 2);
        specs.push_back(std::move(s));
    }

    // ---- model ----
    const NetworkLink link = backscatterUplink();
    std::vector<FleetCameraModel> model_cams;
    model_cams.reserve(specs.size());
    for (const CameraSpec &s : specs) {
        FleetCameraModel m;
        m.name = s.name;
        m.pipeline = s.pipeline;
        m.config = s.config;
        model_cams.push_back(std::move(m));
    }
    const FleetModelReport model =
        fleetReport(model_cams, link, SharePolicy::Fair);
    res.predicted_agg_fps = model.aggregate_fps;

    RunOptions des;
    des.mode = ExecutionMode::DiscreteEvent;

    // ---- paced model-agreement run ----
    // Frame budgets proportional to each camera's fair share keep the
    // swarm stationary to the last frame, so the steady-state rate
    // estimator sees uniform departure spacing end to end.
    double min_fps = model.cameras[0].fps;
    for (const FleetShare &share : model.cameras) {
        min_fps = std::min(min_fps, share.fps);
    }
    const double base_frames = quick ? 5.0 : 8.0;
    const double t_model = base_frames / min_fps;

    FleetOptions paced;
    paced.policy = SharePolicy::Fair;
    paced.gating = GatingMode::None;
    paced.epoch_capacity = 4; // never reconfigures; keep 100k light
    CameraFleet fleet(link, paced);
    for (size_t i = 0; i < specs.size(); ++i) {
        FleetCamera cam(specs[i].name, *specs[i].pipeline,
                        specs[i].config);
        cam.frames = std::max<int64_t>(
            4, static_cast<int64_t>(
                   std::lround(t_model * model.cameras[i].fps)));
        fleet.addCamera(std::move(cam));
    }
    const auto t0 = std::chrono::steady_clock::now();
    const FleetRunReport run = fleet.run(des);
    res.host_seconds += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    res.measured_agg_fps = run.aggregate_model_fps;
    res.model_seconds = run.wall_seconds;
    res.events = run.des_events;

    // ---- counting exactness run ----
    // Pacing off, frame clock on: the engine replays pure accounting.
    // Every offered frame must be delivered and every uplink byte must
    // equal the configs' cut bytes — integers below 2^53, so the sums
    // are exact and the gate is equality, not tolerance.
    const int64_t count_frames = 10;
    FleetOptions counting;
    counting.policy = SharePolicy::Fair;
    counting.gating = GatingMode::None;
    counting.pace_stages = false;
    counting.pace_link = false;
    counting.trace_fps = 30.0;
    counting.epoch_capacity = 4;
    CameraFleet counting_fleet(link, counting);
    double expected_bytes = 0.0;
    for (const CameraSpec &s : specs) {
        FleetCamera cam(s.name, *s.pipeline, s.config);
        cam.frames = count_frames;
        counting_fleet.addCamera(std::move(cam));
        expected_bytes +=
            static_cast<double>(count_frames) *
            PipelineEvaluator(*s.pipeline, link).cutBytes(s.config).b();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const FleetRunReport counted = counting_fleet.run(des);
    res.host_seconds += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t1)
                            .count();
    res.events += counted.des_events;
    const int64_t expected_frames = count_frames * n;
    res.exact = counted.ledger.offered == expected_frames &&
                counted.ledger.delivered == expected_frames &&
                counted.ledger.dropped == 0 &&
                counted.uplink_bytes.b() == expected_bytes;
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else {
            std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
            return 2;
        }
    }

    banner("fleet vs model",
           "N cameras, one arbitrated uplink: measured shares held "
           "against the fleet model");
    paperSays("one camera, one link; the deployments it motivates — "
              "WISPCam swarms, VR rigs — share the medium");
    std::printf("mode: %s\n\n", quick ? "quick (CI smoke)" : "full");

    // The two FA flavours (two sensor geometries) and the VR rig.
    const Pipeline fa_large = buildFaPipeline(nominalFaMeasurements());
    const Pipeline fa_small =
        buildFaPipeline(nominalFaMeasurements(128, 96, 18));
    const Pipeline vr = buildVrPipeline(VrPipelineModel{});

    const std::vector<int> counts = {1, 4, 16, 64};
    std::vector<PointResult> results;

    for (int n : counts) {
        // WISPCam swarm on backscatter: everyone computes in camera
        // and uploads the detected face crop (cut 2); two crop
        // geometries; fair arbitration.
        std::vector<CameraSpec> swarm;
        for (int i = 0; i < n; ++i) {
            CameraSpec s;
            s.name = "wisp" + std::to_string(i);
            s.pipeline = i % 2 == 0 ? &fa_large : &fa_small;
            s.config = PipelineConfig::full(*s.pipeline, Impl::Asic, 2);
            swarm.push_back(std::move(s));
        }
        results.push_back(measurePoint("backscatter",
                                       backscatterUplink(), swarm,
                                       SharePolicy::Fair, quick));

        // Raw-streaming FA cameras on Wi-Fi (cut 0, the "dumb
        // camera" fleet): two frame geometries, every fourth camera
        // weighted double — weighted arbitration.
        std::vector<CameraSpec> streamers;
        for (int i = 0; i < n; ++i) {
            CameraSpec s;
            s.name = "cam" + std::to_string(i);
            s.pipeline = i % 2 == 0 ? &fa_large : &fa_small;
            s.config = PipelineConfig::full(*s.pipeline, Impl::Asic, 0);
            s.weight = i % 4 == 3 ? 2.0 : 1.0;
            streamers.push_back(std::move(s));
        }
        results.push_back(measurePoint("wifi", wifiUplink(), streamers,
                                       SharePolicy::Weighted, quick));

        // VR rig on 25 GbE: alternating offload cuts (full-local
        // stitch upload vs depth-map offload), the bigger uploads
        // weighted double — weighted arbitration.
        std::vector<CameraSpec> rig;
        for (int i = 0; i < n; ++i) {
            CameraSpec s;
            s.name = "vr" + std::to_string(i);
            s.pipeline = &vr;
            const int cut = i % 2 == 0 ? 4 : 3;
            s.config = PipelineConfig::full(vr, Impl::Fpga, cut);
            s.weight = cut == 3 ? 2.0 : 1.0;
            rig.push_back(std::move(s));
        }
        results.push_back(measurePoint("25gbe", twentyFiveGbE(), rig,
                                       SharePolicy::Weighted, quick));
    }

    std::printf("%-12s %4s %-9s %12s %12s %7s %9s %9s %7s\n", "link",
                "cams", "policy", "pred aggFPS", "meas aggFPS", "err",
                "worstFPS", "worstE", "wall");
    bool within = true;
    for (const PointResult &r : results) {
        within = within && r.within();
        std::printf("%-12s %4d %-9s %12.2f %12.2f %6.1f%% %8.1f%% "
                    "%8.2f%% %6.2fs%s\n",
                    r.link_name.c_str(), r.cameras,
                    sharePolicyName(r.policy), r.predicted_agg_fps,
                    r.measured_agg_fps, 100.0 * r.aggError(),
                    100.0 * r.max_cam_fps_err,
                    100.0 * r.max_energy_err, r.wall_seconds,
                    r.within() ? "" : "  <-- OUT OF TOLERANCE");
    }

    // ---- discrete-event scale sweep ----
    // Past the thread pool's reach: the same swarm at gateway scale,
    // one event loop, one core. Quick mode stops at 10k cameras; full
    // mode adds the 100k point behind the paper's headline claim.
    std::vector<int> des_counts = {1000, 10000};
    if (!quick) {
        des_counts.push_back(100000);
    }
    std::printf("\ndiscrete-event scale sweep (backscatter swarm, "
                "fair share, one core)\n");
    std::printf("%8s %12s %12s %7s %12s %10s %10s %6s\n", "cams",
                "pred aggFPS", "meas aggFPS", "err", "model span",
                "events", "events/s", "exact");
    std::vector<DesPointResult> des_results;
    for (int n : des_counts) {
        const DesPointResult r =
            measureDesPoint(n, fa_large, fa_small, quick);
        within = within && r.within();
        std::printf("%8d %12.3f %12.3f %6.2f%% %11.0fs %10lld %10.0f "
                    "%6s%s\n",
                    r.cameras, r.predicted_agg_fps,
                    r.measured_agg_fps, 100.0 * r.aggError(),
                    r.model_seconds,
                    static_cast<long long>(r.events), r.eventsPerSec(),
                    r.exact ? "yes" : "NO",
                    r.within() ? "" : "  <-- OUT OF TOLERANCE");
        des_results.push_back(r);
    }

    std::printf("\nBENCH_JSON {\"bench\":\"fleet\",\"quick\":%s,"
                "\"points\":[",
                quick ? "true" : "false");
    for (size_t i = 0; i < results.size(); ++i) {
        const PointResult &r = results[i];
        std::printf("%s{\"link\":\"%s\",\"cameras\":%d,"
                    "\"policy\":\"%s\",\"predicted_agg_fps\":%.3f,"
                    "\"measured_agg_fps\":%.3f,\"agg_err\":%.4f,"
                    "\"max_cam_fps_err\":%.4f,\"max_energy_err\":%.4f,"
                    "\"time_scale\":%.5f,\"wall_s\":%.3f}",
                    i ? "," : "", r.link_name.c_str(), r.cameras,
                    sharePolicyName(r.policy), r.predicted_agg_fps,
                    r.measured_agg_fps, r.aggError(),
                    r.max_cam_fps_err, r.max_energy_err, r.time_scale,
                    r.wall_seconds);
    }
    std::printf("],\"des_points\":[");
    for (size_t i = 0; i < des_results.size(); ++i) {
        const DesPointResult &r = des_results[i];
        std::printf("%s{\"cameras\":%d,\"predicted_agg_fps\":%.4f,"
                    "\"measured_agg_fps\":%.4f,\"agg_err\":%.5f,"
                    "\"model_s\":%.1f,\"events\":%lld,"
                    "\"events_per_s\":%.0f,\"exact\":%s,"
                    "\"host_s\":%.3f}",
                    i ? "," : "", r.cameras, r.predicted_agg_fps,
                    r.measured_agg_fps, r.aggError(), r.model_seconds,
                    static_cast<long long>(r.events), r.eventsPerSec(),
                    r.exact ? "true" : "false", r.host_seconds);
    }
    std::printf("]}\n");

    if (!within) {
        std::fprintf(stderr,
                     "FAIL: at least one point strayed beyond %.0f%% "
                     "aggregate FPS / %.0f%% energy tolerance, or a "
                     "discrete-event point missed its agreement / "
                     "exactness / %.0fk events-per-second gate\n",
                     100.0 * kAggFpsTolerance,
                     100.0 * kEnergyTolerance,
                     kDesMinEventsPerSec / 1000.0);
        return 1;
    }
    return 0;
}
