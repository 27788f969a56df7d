#include "fleet/fleet.hh"

#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/thread_safety.hh"
#include "exec/thread_pool.hh"
#include "sim/clock.hh"
#include "sim/engine.hh"
#include "trace/trace.hh"

namespace incam {

CameraFleet::CameraFleet(NetworkLink link, FleetOptions options)
    : net(std::move(link)), opts(std::move(options))
{
    incam_assert(opts.time_scale > 0.0, "time_scale must be positive");
}

int
CameraFleet::addCamera(FleetCamera camera)
{
    incam_assert(!consumed, "a CameraFleet instance is single-use");
    incam_assert(camera.weight > 0.0, "camera '", camera.name,
                 "' needs a positive weight");
    incam_assert(camera.frames > 0, "camera '", camera.name,
                 "' needs at least one frame");
    // Validate the configuration now, not mid-run.
    PipelineEvaluator(camera.pipeline, net).check(camera.config);
    cams.push_back(std::move(camera));
    return static_cast<int>(cams.size()) - 1;
}

std::vector<FleetCameraModel>
CameraFleet::modelCameras() const
{
    std::vector<FleetCameraModel> out;
    out.reserve(cams.size());
    for (const FleetCamera &cam : cams) {
        FleetCameraModel m;
        m.name = cam.name;
        m.pipeline = &cam.pipeline;
        m.config = cam.config;
        m.weight = cam.weight;
        m.source_fps = cam.source_fps;
        out.push_back(std::move(m));
    }
    return out;
}

namespace {

/** Per-camera RuntimeOptions from the fleet-wide knobs. */
RuntimeOptions
cameraRuntimeOptions(const FleetOptions &opts, const FleetCamera &cam)
{
    RuntimeOptions ro;
    ro.frames = cam.frames;
    ro.queue_capacity = opts.queue_capacity;
    ro.gating = opts.gating;
    ro.time_scale = opts.time_scale;
    ro.pace_stages = opts.pace_stages;
    ro.pace_link = opts.pace_link;
    ro.stage_burst_frames = opts.stage_burst_frames;
    ro.source_fps = cam.source_fps;
    ro.trace_fps = opts.trace_fps;
    ro.delivery = opts.delivery;
    ro.stage_policy = opts.stage_policy;
    ro.epoch_capacity = opts.epoch_capacity;
    return ro;
}

/** Fold per-camera reports and link shares into the fleet report. */
FleetRunReport
assembleReport(const FleetOptions &opts, const NetworkLink &net,
               const std::deque<FleetCamera> &cams,
               std::vector<RuntimeReport> reports,
               const std::vector<LinkEndpointReport> &shares,
               double wall)
{
    FleetRunReport rep;
    rep.wall_seconds = wall;
    for (size_t i = 0; i < cams.size(); ++i) {
        FleetCameraReport cr;
        cr.name = cams[i].name;
        cr.weight = cams[i].weight;
        cr.runtime = std::move(reports[i]);
        cr.link = shares[i];
        rep.aggregate_model_fps += cr.runtime.model_fps;
        rep.total_energy += cr.runtime.total_energy();
        rep.uplink_bytes += cr.runtime.link.bytes_sent;
        rep.ledger.add(cr.runtime.ledger);
        rep.cameras.push_back(std::move(cr));
    }
    // Under a trace the medium's capacity is the schedule's
    // time-weighted mean, not the stationary construction link.
    const Bandwidth goodput = opts.network_trace != nullptr
                                  ? opts.network_trace->averageLink()
                                        .goodput()
                                  : net.goodput();
    const double capacity =
        goodput.bytesPerSecond() / opts.time_scale * wall;
    rep.link_utilization =
        capacity > 0.0 ? rep.uplink_bytes.b() / capacity : 0.0;
    return rep;
}

} // namespace

FleetRunReport
CameraFleet::run(const RunOptions &options)
{
    incam_assert(!consumed, "a CameraFleet instance is single-use");
    consumed = true;
    incam_assert(!cams.empty(), "a fleet needs at least one camera");
    incam_assert(options.clock == nullptr,
                 "fleet shapes own their clocks: RunOptions::clock is "
                 "a solo-pipeline knob");
    switch (options.mode) {
      case ExecutionMode::ThreadPerCamera:
        return runThreadPerCamera(options);
      case ExecutionMode::DiscreteEvent:
        return runDiscreteEvent(options);
      case ExecutionMode::ThreadedStages:
      case ExecutionMode::Inline:
        incam_panic("a fleet's serial shape is ThreadPerCamera (one "
                    "inline loop per camera); ExecutionMode::Inline "
                    "and ThreadedStages are solo-pipeline only");
    }
    incam_panic("unknown ExecutionMode");
}

FleetRunReport
CameraFleet::runThreadPerCamera(const RunOptions &options)
{
    incam_assert(!ThreadPool::inWorker(),
                 "a fleet cannot run nested inside a thread-pool "
                 "worker: camera loops need real concurrency");
    const size_t n = cams.size();

    // One link replaces every camera's own. Each camera banks two of
    // its own frames: a bound sized to the fleet's largest frame would
    // let a camera with small frames hold a share of the medium it
    // never uses.
    SharedLink::Options link_opts;
    link_opts.policy = opts.policy;
    link_opts.trace = opts.network_trace;
    link_opts.time_scale = opts.time_scale;
    link_opts.pace = opts.pace_link;
    SharedLink shared(net, link_opts);

    std::vector<std::unique_ptr<StreamingPipeline>> pipes;
    pipes.reserve(n);
    for (const FleetCamera &cam : cams) {
        auto sp = std::make_unique<StreamingPipeline>(
            cam.pipeline, cam.config, net,
            cameraRuntimeOptions(opts, cam));
        const int endpoint = shared.addEndpoint(cam.name, cam.weight);
        sp->attachSharedLink(&shared, endpoint);
        if (opts.faults != nullptr) {
            // The camera identifies to the shared fault oracle as its
            // fleet index, so crash windows and hash streams are per
            // camera while the plan itself is shared.
            sp->setFaultInjector(opts.faults, endpoint);
        }
        if (options.obs.active()) {
            // Events and metric series identify by fleet index (the
            // exporter pid) and camera name (the series label).
            sp->setObs(options.obs, endpoint, cam.name);
        }
        if (cam.customize) {
            cam.customize(*sp);
        }
        pipes.push_back(std::move(sp));
    }
    shared.start(); // trace time zero = run start, not first frame

    std::vector<RuntimeReport> reports(n);
    AnnotatedMutex error_mu;
    std::exception_ptr first_error;
    auto record = [&](std::exception_ptr e) {
        MutexLock lk(error_mu);
        if (!first_error) {
            first_error = std::move(e);
        }
    };

    // Elapsed time comes from the run's clock, not a raw steady_clock
    // read: the threaded fleet runs on the shared WallClock (same
    // timebase every camera pipeline stamps latencies against), and
    // the determinism linter keeps raw wall-clock reads confined to
    // sim/clock — the boundary a future injected-clock fleet relies on.
    sim::Clock &run_clock = sim::WallClock::shared();
    const double t0 = run_clock.now();
    // One serial camera loop per pool chunk; all run concurrently.
    incam_assert(n <= static_cast<size_t>(ThreadPool::kMaxWorkers) + 1,
                 "fleet has ", n, " cameras but the thread pool caps at ",
                 ThreadPool::kMaxWorkers + 1, " concurrent participants");
    ThreadPool::global().run(
        static_cast<uint64_t>(n), static_cast<int>(n), [&](uint64_t c) {
            try {
                reports[c] = pipes[c]->runInline();
            } catch (...) {
                record(std::current_exception());
            }
        });
    const double wall = run_clock.now() - t0;
    if (first_error) {
        std::rethrow_exception(first_error);
    }

    return assembleReport(opts, net, cams, std::move(reports),
                          shared.report(), wall);
}

FleetRunReport
CameraFleet::runDiscreteEvent(const RunOptions &options)
{
    // Model time needs no stretching: the run is as fast as the host
    // can replay events, and time_scale would only distort the model.
    incam_assert(opts.time_scale == 1.0,
                 "discrete-event fleets run on model time; "
                 "time_scale must be 1");
    const size_t n = cams.size();

    sim::SimEngine::Options eo;
    eo.policy = opts.policy;
    eo.pace_link = opts.pace_link;
    eo.trace = opts.network_trace;
    eo.trace_fps = opts.trace_fps;
    sim::SimEngine engine(net, eo);

    std::vector<std::unique_ptr<StreamingPipeline>> pipes;
    pipes.reserve(n);
    for (const FleetCamera &cam : cams) {
        auto sp = std::make_unique<StreamingPipeline>(
            cam.pipeline, cam.config, net,
            cameraRuntimeOptions(opts, cam));
        // No SharedLink: the engine owns delivery (sim/SimLink models
        // the medium; planDelivery/finishDelivery book it per camera).
        const int endpoint =
            engine.addCamera(sp.get(), cam.name, cam.weight);
        sp->setClock(engine.cameraClock(endpoint));
        if (opts.faults != nullptr) {
            sp->setFaultInjector(opts.faults, endpoint);
        }
        if (options.obs.active()) {
            sp->setObs(options.obs, endpoint, cam.name);
        }
        if (cam.customize) {
            cam.customize(*sp);
        }
        pipes.push_back(std::move(sp));
    }

    engine.run(); // rethrows the first camera error, fleet contract

    std::vector<RuntimeReport> reports(n);
    std::exception_ptr first_error;
    for (size_t i = 0; i < n; ++i) {
        try {
            reports[i] = pipes[i]->finishRun();
        } catch (...) {
            if (!first_error) {
                first_error = std::current_exception();
            }
        }
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }

    // "Wall" for a discrete-event run is the model-time span: that is
    // the denominator that makes fps and utilization physical.
    FleetRunReport rep =
        assembleReport(opts, net, cams, std::move(reports),
                       engine.linkReport(), engine.modelSeconds());
    rep.des_events = engine.events();
    return rep;
}

} // namespace incam
