/**
 * @file
 * Fleet arbitration demo: both case studies under one link budget.
 *
 * Builds a small heterogeneous fleet — two face-auth cameras (one
 * uploading face crops, one streaming raw frames, both capped at a
 * 30 FPS sensor) and a saturated VR rig camera — sharing one 25 GbE
 * trunk, predicts each camera's contended share with the analytical
 * fleet model, runs the fleet for real through the SharedLink
 * arbiter, and prints model-vs-measured side by side. Then asks the
 * FleetOptimizer what per-camera cuts it would pick for the same
 * fleet.
 *
 *   cmake --build build --target example_fleet_arbitration_demo
 *   ./build/example_fleet_arbitration_demo
 */

#include <cstdio>

#include "core/fleet_model.hh"
#include "core/network.hh"
#include "fa/scenario.hh"
#include "fleet/fleet.hh"
#include "vr/scenario.hh"

using namespace incam;

int
main()
{
    const Pipeline fa = buildFaPipeline(nominalFaMeasurements());
    const Pipeline vr = buildVrPipeline(VrPipelineModel{});
    const NetworkLink link = twentyFiveGbE();

    std::printf("fleet: 2 FA cameras + 1 VR camera sharing %s "
                "(%.2f GB/s goodput), fair arbitration\n\n",
                link.name.c_str(),
                link.goodput().bytesPerSecond() / 1e9);

    FleetOptions options;
    options.gating = GatingMode::None; // throughput semantics
    options.time_scale = 0.25;         // 4x compressed wall time
    CameraFleet fleet(link, options);

    FleetCamera crops("fa-crops", fa,
                      PipelineConfig::full(fa, Impl::Asic, 2));
    crops.frames = 60;
    crops.source_fps = 30.0; // a security camera's sensor rate
    fleet.addCamera(std::move(crops));

    FleetCamera raw("fa-raw", fa,
                    PipelineConfig::full(fa, Impl::Asic, 0));
    raw.frames = 60;
    raw.source_fps = 30.0;
    fleet.addCamera(std::move(raw));

    // The VR rig saturates: ~100 MB stitched slices as fast as its
    // compute and the leftover trunk capacity allow.
    FleetCamera rig("vr-rig", vr,
                    PipelineConfig::full(vr, Impl::Fpga, 4));
    rig.frames = 60;
    fleet.addCamera(std::move(rig));

    const FleetModelReport model =
        fleetReport(fleet.modelCameras(), link, options.policy);
    RunOptions per_camera;
    per_camera.mode = ExecutionMode::ThreadPerCamera;
    const FleetRunReport run = fleet.run(per_camera);

    std::printf("%-10s %11s %11s %14s %11s\n", "camera", "model FPS",
                "meas FPS", "share MB/s", "link-bound");
    for (size_t i = 0; i < run.cameras.size(); ++i) {
        const FleetShare &m = model.cameras[i];
        const FleetCameraReport &r = run.cameras[i];
        std::printf("%-10s %11.2f %11.2f %14.2f %11s\n",
                    r.name.c_str(), m.fps, r.runtime.model_fps,
                    m.allocated_bps / 1e6, m.link_bound ? "yes" : "no");
    }
    std::printf("\naggregate: model %.2f FPS, measured %.2f FPS; "
                "link utilization %.0f%%\n",
                model.aggregate_fps, run.aggregate_model_fps,
                100.0 * model.utilization);

    // What would the optimizer do with this fleet?
    FleetOptimizerGoal goal;
    goal.kind = FleetOptimizerGoal::Kind::MaxAggregateFps;
    const FleetOptimizer optimizer(fleet.modelCameras(), link,
                                   options.policy);
    const FleetChoice choice = optimizer.best(goal);
    std::printf("\noptimizer (max aggregate FPS -> %.2f):\n",
                choice.report.aggregate_fps);
    for (size_t i = 0; i < choice.configs.size(); ++i) {
        const Pipeline &p = i < 2 ? fa : vr;
        std::printf("  %-10s %s\n", run.cameras[i].name.c_str(),
                    choice.configs[i].toString(p).c_str());
    }
    return 0;
}
