/**
 * @file
 * Adaptive offload under time-varying links: best-static vs oracle vs
 * the online controller.
 *
 * The paper fixes the link and asks where to cut the pipeline; this
 * harness varies the link (and the scene) over trace/ schedules and
 * asks the question the adaptive layer exists to answer — how much of
 * the per-segment-optimal ("oracle") cost can an online controller
 * that only sees estimated conditions actually capture, and how far
 * ahead of the best *static* configuration does it land?
 *
 * Rigs and traces:
 *
 *  - An MCU-class FA camera (ASIC motion gate, software face detect
 *    and authentication — a WISPCam-style deployment whose heavy
 *    blocks have no accelerator) under MinEnergy, swept over a
 *    Gilbert-Elliott fading Wi-Fi link with scene content bridged
 *    from the security-video ground truth, an RF-harvest duty-cycled
 *    backscatter link, and a stationary Wi-Fi control.
 *  - The Fig. 9 VR rig under MaxThroughput on a trunk stepping
 *    between 100 GbE-class off-peak capacity and 25 GbE-class peak
 *    congestion — the Section IV-C sensitivity axis made dynamic
 *    (above ~50 Gb/s raw offload beats the full-FPGA chain; below,
 *    the in-camera pipeline wins).
 *
 * For every scenario three answers are produced:
 *
 *   best-static — the best single configuration over the whole trace
 *                 (what a stationary planner ships);
 *   oracle      — per-segment re-optimization with perfect knowledge
 *                 (the analytical upper bound);
 *   adaptive    — the real StreamingPipeline with an attached
 *                 AdaptiveController and a trace-driven SharedLink
 *                 (measured).
 *
 * Energy scenarios run the deterministic counting shape on the frame
 * clock; the VR scenario runs paced against the wall trace clock with
 * time_scale compression. Gates — the bar this subsystem must hold:
 *
 *   - adaptive within 10% of oracle on both energy J/frame and FPS in
 *     every scenario;
 *   - adaptive strictly better than best-static on the goal metric on
 *     every non-stationary trace;
 *   - every run lossless: frames out (delivered + gated) == frames in.
 *
 *   bench_adaptive [--quick]
 *
 * Ends with one BENCH_JSON line for trajectory tracking; exits
 * non-zero if any gate fails.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "adapt/controller.hh"
#include "bench_common.hh"
#include "core/network.hh"
#include "core/optimizer.hh"
#include "fa/scenario.hh"
#include "runtime/runtime.hh"
#include "runtime/uplink.hh"
#include "trace/trace.hh"
#include "vr/pipeline_model.hh"
#include "vr/scenario.hh"
#include "workload/video.hh"

using namespace incam;

namespace {

constexpr double kOracleTolerance = 0.10; ///< adaptive vs oracle

/**
 * The MCU-class FA camera: the motion gate is the only accelerated
 * block; face detection and authentication run in software on the
 * node's microcontroller at software costs. This is the deployment
 * where offloading right after the gate is genuinely competitive —
 * the in-camera path costs ~1.5 mJ per gated frame while the gated
 * raw stream costs 153 kbit x e/bit, so the optimal cut tracks the
 * radio's per-bit price.
 */
Pipeline
mcuFaPipeline()
{
    const FaMeasurements m = nominalFaMeasurements();
    Pipeline pipe("fa-mcu", m.frame_bytes);

    Block motion("MotionGate", /*optional=*/true, m.frame_bytes);
    motion.setPassFraction(m.motion_pass);
    motion.addImpl(Impl::Asic,
                   {Time::microseconds(640), m.motion_per_frame});
    pipe.add(motion);

    Block detect("FaceDetect", /*optional=*/true, m.crop_bytes);
    detect.setPassFraction(m.vj_pass);
    detect.addImpl(Impl::Mcu,
                   {Time::milliseconds(80), Energy::microjoules(1500)});
    pipe.add(detect);

    // Blind-scan pricing, as in fa/scenario.hh: the NN's per-frame
    // cost is the full-frame software scan; FaceDetect's pass
    // fraction is the work ratio a crop buys. 300 ms at ~20 mW.
    Block auth("FaceAuth", /*optional=*/false, DataSize::bytes(1));
    auth.addImpl(Impl::Mcu,
                 {Time::milliseconds(300), Energy::millijoules(6.0)});
    pipe.add(auth);
    return pipe;
}

/**
 * J per source frame under *runtime* semantics: the analytical FA
 * convention rounds the fully-in-camera upload (a 1-byte verdict) to
 * zero, but the runtime prices every byte that reaches the uplink —
 * which matters when "fully in camera" still emits a 101 MB stitched
 * product (the VR rig). The bench compares model aggregates against
 * measured runs, so both sides use the runtime's basis.
 */
double
runtimeJpf(const PipelineEvaluator &ev, const PipelineConfig &cfg)
{
    const EnergyReport rep = ev.evaluateEnergy(cfg);
    double j = rep.total().j();
    if (cfg.cut == ev.pipeline().blockCount()) {
        j += ev.link().transferEnergy(rep.cut_bytes).j() * rep.cut_duty;
    }
    return j;
}

/** One scenario's world: a link schedule plus optional scene content. */
struct Conditions
{
    const NetworkTrace *net = nullptr;
    const ContentTrace *content = nullptr;
    double horizon = 0.0; ///< evaluation window, model seconds
};

/** The planning pipeline in force at trace time t. */
Pipeline
pipelineAt(const Pipeline &base, const Conditions &c, double t)
{
    if (c.content == nullptr) {
        return base;
    }
    const ContentSegment &cs = c.content->at(Time::seconds(t));
    return withPassFractions(base, cs.motion_pass, cs.face_pass);
}

/** Sorted piece boundaries: trace segments, content windows, extras. */
std::vector<double>
pieceBoundaries(const Conditions &c, const std::vector<double> &extra)
{
    std::vector<double> b;
    b.push_back(0.0);
    b.push_back(c.horizon);
    const double span = c.net->duration().sec();
    for (double base = 0.0; base < c.horizon; base += span) {
        for (size_t i = 0; i < c.net->segmentCount(); ++i) {
            const double t = base + c.net->segment(i).start.sec();
            if (t < c.horizon) {
                b.push_back(t);
            }
        }
        if (!c.net->periodic()) {
            break;
        }
    }
    if (c.content != nullptr) {
        for (size_t i = 0; i < c.content->segmentCount(); ++i) {
            const double t = c.content->segment(i).start.sec();
            if (t < c.horizon) {
                b.push_back(t);
            }
        }
    }
    for (double t : extra) {
        if (t > 0.0 && t < c.horizon) {
            b.push_back(t);
        }
    }
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    return b;
}

/** Aggregated cost of a configuration schedule over the trace. */
struct Aggregate
{
    double jpf_j = 0.0; ///< J per source frame
    double fps = 0.0;   ///< deliverable frames per second
};

/**
 * Fold per-piece (jpf, fps) into trace-wide aggregates. Energy is
 * duration-weighted for fixed-rate sources; with
 * @p frame_weighted_energy (saturated sources — the VR shape) each
 * piece weighs by the frames it actually delivers.
 */
class Accumulator
{
  public:
    explicit Accumulator(bool frame_weighted_energy)
        : frame_weighted(frame_weighted_energy)
    {
    }

    void
    add(double dur, double jpf, double fps)
    {
        const double ew = frame_weighted ? dur * fps : dur;
        e_acc += ew * jpf;
        ew_acc += ew;
        f_acc += dur * fps;
        w_acc += dur;
    }

    Aggregate
    result() const
    {
        return {ew_acc > 0.0 ? e_acc / ew_acc : 0.0,
                w_acc > 0.0 ? f_acc / w_acc : 0.0};
    }

  private:
    bool frame_weighted;
    double e_acc = 0.0, ew_acc = 0.0, f_acc = 0.0, w_acc = 0.0;
};

/** One fixed config priced over every piece of the trace. */
Aggregate
aggregateConfig(const Pipeline &base, const Conditions &c,
                const std::vector<double> &bounds,
                const PipelineConfig &cfg, bool frame_weighted_energy)
{
    Accumulator acc(frame_weighted_energy);
    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
        const double t0 = bounds[i];
        const Pipeline pipe = pipelineAt(base, c, t0);
        const PipelineEvaluator ev(pipe, c.net->at(Time::seconds(t0)));
        acc.add(bounds[i + 1] - t0, runtimeJpf(ev, cfg),
                ev.evaluateThroughput(cfg).total_fps);
    }
    return acc.result();
}

/** Per-piece re-optimization with perfect knowledge — the bound. */
Aggregate
oracleAggregate(const Pipeline &base, const Conditions &c,
                const std::vector<double> &bounds,
                const OptimizerGoal &goal, bool frame_weighted_energy)
{
    Accumulator acc(frame_weighted_energy);
    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
        const double t0 = bounds[i];
        const Pipeline pipe = pipelineAt(base, c, t0);
        const NetworkLink link = c.net->at(Time::seconds(t0));
        const PipelineOptimizer opt(pipe, link);
        const ConfigResult best = opt.best(goal);
        acc.add(bounds[i + 1] - t0,
                runtimeJpf(PipelineEvaluator(pipe, link), best.config),
                best.throughput.total_fps);
    }
    return acc.result();
}

/** The best single configuration over the whole trace. */
std::pair<PipelineConfig, Aggregate>
bestStatic(const Pipeline &base, const Conditions &c,
           const std::vector<double> &bounds, const OptimizerGoal &goal,
           bool frame_weighted_energy)
{
    // Enumerate the structural config space once (the link used here
    // only orders the list; every config is re-priced per piece).
    const PipelineOptimizer opt(base, c.net->averageLink());
    const std::vector<ConfigResult> all = opt.enumerate(goal);
    bool have = false;
    PipelineConfig best_cfg;
    Aggregate best_agg;
    std::string best_str;
    for (const ConfigResult &r : all) {
        const Aggregate agg = aggregateConfig(base, c, bounds, r.config,
                                              frame_weighted_energy);
        const double obj = goal.kind == OptimizerGoal::Kind::MinEnergy
                               ? agg.jpf_j
                               : -agg.fps;
        const double best_obj =
            goal.kind == OptimizerGoal::Kind::MinEnergy ? best_agg.jpf_j
                                                        : -best_agg.fps;
        const std::string str = r.config.toString(base);
        if (!have || obj < best_obj ||
            (obj == best_obj && str < best_str)) {
            have = true;
            best_cfg = r.config;
            best_agg = agg;
            best_str = str;
        }
    }
    return {best_cfg, best_agg};
}

/** The controller's live-config timeline priced over the trace. */
Aggregate
adaptiveImplied(const Pipeline &base, const Conditions &c,
                const PipelineConfig &initial,
                const std::vector<AdaptiveDecision> &decisions,
                bool frame_weighted_energy)
{
    std::vector<std::pair<double, PipelineConfig>> switches;
    std::vector<double> extra;
    for (const AdaptiveDecision &d : decisions) {
        if (d.switched) {
            switches.emplace_back(d.t, d.config);
            extra.push_back(d.t);
        }
    }
    const std::vector<double> bounds = pieceBoundaries(c, extra);

    Accumulator acc(frame_weighted_energy);
    size_t applied = 0;
    PipelineConfig live = initial;
    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
        const double t0 = bounds[i];
        while (applied < switches.size() &&
               switches[applied].first <= t0) {
            live = switches[applied].second;
            ++applied;
        }
        const Pipeline pipe = pipelineAt(base, c, t0);
        const PipelineEvaluator ev(pipe, c.net->at(Time::seconds(t0)));
        acc.add(bounds[i + 1] - t0, runtimeJpf(ev, live),
                ev.evaluateThroughput(live).total_fps);
    }
    return acc.result();
}

/** One scenario's outcome and gate verdicts. */
struct ScenarioResult
{
    std::string name;
    bool stationary = false;
    bool energy_goal = true;
    Aggregate oracle, stat, adaptive;
    std::string static_config;
    int64_t switches = 0;
    bool lossless = false;
    double wall_seconds = 0.0;

    double
    oracleGapEnergy() const
    {
        return oracle.jpf_j > 0.0
                   ? adaptive.jpf_j / oracle.jpf_j - 1.0
                   : 0.0;
    }

    double
    oracleGapFps() const
    {
        return oracle.fps > 0.0 ? 1.0 - adaptive.fps / oracle.fps
                                : 0.0;
    }

    /** The goal metric's improvement over the best static config. */
    double
    staticGain() const
    {
        return energy_goal ? 1.0 - adaptive.jpf_j / stat.jpf_j
                           : adaptive.fps / stat.fps - 1.0;
    }

    bool
    pass() const
    {
        if (!lossless) {
            return false;
        }
        if (oracleGapEnergy() > kOracleTolerance ||
            oracleGapFps() > kOracleTolerance) {
            return false;
        }
        return stationary || staticGain() > 0.0;
    }
};

int64_t
totalDropped(const RuntimeReport &rep)
{
    int64_t dropped = 0;
    for (const StageReport &st : rep.stages) {
        dropped += st.frames_dropped;
    }
    return dropped;
}

/** Controller knobs for the deterministic energy scenarios. */
ControllerOptions
energyControllerOptions(double trace_fps)
{
    ControllerOptions c;
    c.goal.kind = OptimizerGoal::Kind::MinEnergy;
    c.decision_period = 0.5;
    c.sample_period = 0.25;
    c.ewma_horizon = Time::seconds(0.3);
    c.hysteresis = 0.05;
    c.min_dwell = 2;
    c.trace_fps = trace_fps;
    return c;
}

/**
 * A MinEnergy scenario: counting run on the frame clock — energy is
 * measured by the runtime (trace-priced per frame); FPS is the
 * decision timeline's model throughput.
 */
ScenarioResult
runEnergyScenario(const std::string &name, const Pipeline &base,
                  const Conditions &c, double source_fps,
                  bool stationary)
{
    OptimizerGoal goal;
    goal.kind = OptimizerGoal::Kind::MinEnergy;
    const std::vector<double> bounds = pieceBoundaries(c, {});

    ScenarioResult res;
    res.name = name;
    res.stationary = stationary;
    res.energy_goal = true;
    res.oracle = oracleAggregate(base, c, bounds, goal, false);
    auto [static_cfg, static_agg] =
        bestStatic(base, c, bounds, goal, false);
    res.stat = static_agg;
    res.static_config = static_cfg.toString(base);

    RuntimeOptions opts;
    opts.frames = static_cast<int64_t>(c.horizon * source_fps);
    opts.gating = GatingMode::Model;
    opts.pace_stages = false;
    opts.pace_link = false;
    opts.trace_fps = source_fps;
    opts.epoch_capacity = 1024;
    StreamingPipeline sp(base, static_cfg, c.net->at(Time{}), opts);
    sp.setContentTrace(c.content);

    SharedLink::Options lopts;
    lopts.trace = c.net;
    lopts.pace = false;
    SharedLink link(c.net->at(Time{}), lopts);
    sp.attachSharedLink(&link, link.addEndpoint("fa"));

    AdaptiveController ctl(base, c.net->averageLink(),
                           energyControllerOptions(source_fps));
    ctl.useNetworkTrace(c.net);
    ctl.useContentTrace(c.content);
    ctl.attach(sp);

    const auto t0 = std::chrono::steady_clock::now();
    const RuntimeReport rep = sp.run();
    res.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

    res.lossless = rep.source_frames == opts.frames &&
                   rep.delivered_frames + totalDropped(rep) ==
                       rep.source_frames;
    res.switches = ctl.switches();
    res.adaptive = adaptiveImplied(base, c, static_cfg,
                                   ctl.decisions(), false);
    // The runtime actually measured the energy; prefer it over the
    // implied number (they must agree — the fidelity the runtime
    // benches already pin — but the measurement is the claim).
    res.adaptive.jpf_j = rep.joules_per_frame.j();
    return res;
}

/**
 * The MaxThroughput VR scenario: paced run, wall trace clock,
 * time_scale-compressed. FPS and energy are both measured.
 */
ScenarioResult
runVrScenario(const std::string &name, const Conditions &c,
              double time_scale, bool stationary)
{
    VrPipelineModel model;
    const Pipeline vr = buildVrPipeline(model);
    OptimizerGoal goal;
    goal.kind = OptimizerGoal::Kind::MaxThroughput;
    const std::vector<double> bounds = pieceBoundaries(c, {});

    ScenarioResult res;
    res.name = name;
    res.stationary = stationary;
    res.energy_goal = false;
    res.oracle = oracleAggregate(vr, c, bounds, goal, true);
    auto [static_cfg, static_agg] =
        bestStatic(vr, c, bounds, goal, true);
    res.stat = static_agg;
    res.static_config = static_cfg.toString(vr);

    RuntimeOptions opts;
    opts.frames = 1 << 20; // duration, not frames, ends the run
    opts.duration = c.horizon;
    opts.gating = GatingMode::None;
    opts.time_scale = time_scale;
    opts.queue_capacity = 4;
    opts.epoch_capacity = 1024;
    StreamingPipeline sp(vr, static_cfg, c.net->at(Time{}), opts);

    SharedLink::Options lopts;
    lopts.trace = c.net;
    lopts.time_scale = time_scale;
    SharedLink link(c.net->at(Time{}), lopts);
    sp.attachSharedLink(&link, link.addEndpoint("vr"));

    ControllerOptions copts;
    copts.goal = goal;
    copts.decision_period = 1.0;
    copts.sample_period = 0.5;
    copts.ewma_horizon = Time::seconds(0.75);
    copts.hysteresis = 0.05;
    copts.min_dwell = 2;
    copts.trace_fps = 1.0; // unused: the wall trace clock drives
    AdaptiveController ctl(vr, c.net->averageLink(), copts);
    ctl.useNetworkTrace(c.net);
    ctl.useTraceClock([&link] { return link.traceTime().sec(); });
    ctl.attach(sp);

    const auto t0 = std::chrono::steady_clock::now();
    link.start();
    const RuntimeReport rep = sp.run();
    res.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

    res.lossless = rep.delivered_frames + totalDropped(rep) ==
                   rep.source_frames;
    res.switches = ctl.switches();
    res.adaptive.fps = rep.model_fps;
    res.adaptive.jpf_j = rep.joules_per_frame.j();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick =
        argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    banner("Adaptive offload under time-varying links",
           "best-static vs per-segment oracle vs online controller");
    paperSays("the optimal compute-communicate cut is a function of "
              "link conditions; under non-stationary links no static "
              "cut stays optimal");

    const Pipeline fa = mcuFaPipeline();
    const double fa_fps = 4.0;
    std::vector<ScenarioResult> results;

    // --- FA / Gilbert-Elliott fading Wi-Fi, video-driven content ----
    {
        const NetworkLink good = wifiUplink();
        NetworkLink bad = good;
        bad.name = "Wi-Fi (faded)";
        bad.bandwidth = good.bandwidth / 8.0;
        bad.energy_per_bit = good.energy_per_bit * 6.0;
        GilbertElliottParams ge;
        ge.p_good_to_bad = 0.15;
        ge.p_bad_to_good = 0.35;
        ge.step = Time::seconds(10.0);
        ge.duration = Time::seconds(quick ? 120.0 : 240.0);
        ge.seed = 5;
        const NetworkTrace trace =
            NetworkTrace::gilbertElliott(good, bad, ge);

        SecurityVideoConfig vc;
        vc.frames = 600;
        vc.seed = 21;
        const SecurityVideo video(vc);
        const ContentTrace content = ContentTrace::fromSecurityVideo(
            video, FrameRate::fps(1.0), 30);

        Conditions c;
        c.net = &trace;
        c.content = &content;
        c.horizon = ge.duration.sec();
        results.push_back(runEnergyScenario("fa-wifi-fading", fa, c,
                                            fa_fps, false));
    }

    // --- FA / RF-harvest duty-cycled backscatter -------------------
    if (!quick) {
        HarvestDutyParams hp;
        hp.distance_m = 1.5;
        hp.capacitor_farads = 10e-3; // supercap: multi-second bursts
        hp.duration = Time::seconds(400.0);
        const NetworkTrace trace =
            NetworkTrace::harvestDutyCycle(backscatterUplink(), hp);
        Conditions c;
        c.net = &trace;
        c.horizon = hp.duration.sec();
        results.push_back(runEnergyScenario("fa-backscatter-harvest",
                                            fa, c, fa_fps, false));
    }

    // --- FA / stationary Wi-Fi control -----------------------------
    {
        const NetworkTrace trace =
            NetworkTrace::stationary(wifiUplink());
        Conditions c;
        c.net = &trace;
        c.horizon = 60.0;
        results.push_back(runEnergyScenario("fa-wifi-stationary", fa,
                                            c, fa_fps, true));
    }

    // --- VR / diurnal trunk congestion steps -----------------------
    {
        // 100 GbE-class off-peak (raw offload wins, ~63 FPS) stepping
        // to 25 GbE-class peak congestion (full-FPGA chain wins, 31).
        const NetworkTrace trace =
            NetworkTrace::steps(twentyFiveGbE(), {4.0, 1.0, 4.0, 1.0},
                                Time::seconds(quick ? 20.0 : 30.0));
        Conditions c;
        c.net = &trace;
        c.horizon = trace.duration().sec();
        results.push_back(runVrScenario("vr-diurnal-congestion", c,
                                        /*time_scale=*/1.0 / 40.0,
                                        false));
    }

    // --- VR / stationary control -----------------------------------
    if (!quick) {
        const NetworkTrace trace =
            NetworkTrace::stationary(twentyFiveGbE());
        Conditions c;
        c.net = &trace;
        c.horizon = 60.0;
        results.push_back(runVrScenario("vr-stationary", c,
                                        1.0 / 40.0, true));
    }

    // ----------------------------- report + gates ------------------
    std::printf("\n%-24s %13s %13s %13s %9s %8s\n", "scenario",
                "static", "oracle", "adaptive", "vs-static", "gap");
    bool all_pass = true;
    for (const ScenarioResult &r : results) {
        const bool ok = r.pass();
        all_pass = all_pass && ok;
        if (r.energy_goal) {
            std::printf("%-24s %11.1fuJ %11.1fuJ %11.1fuJ %8.1f%% "
                        "%6.1f%%%s\n",
                        r.name.c_str(), r.stat.jpf_j * 1e6,
                        r.oracle.jpf_j * 1e6, r.adaptive.jpf_j * 1e6,
                        100.0 * r.staticGain(),
                        100.0 * r.oracleGapEnergy(),
                        ok ? "" : "  <-- GATE FAILED");
        } else {
            std::printf("%-24s %10.1ffps %10.1ffps %10.1ffps %8.1f%% "
                        "%6.1f%%%s\n",
                        r.name.c_str(), r.stat.fps, r.oracle.fps,
                        r.adaptive.fps, 100.0 * r.staticGain(),
                        100.0 * r.oracleGapFps(),
                        ok ? "" : "  <-- GATE FAILED");
        }
        std::printf("    static=%s switches=%lld lossless=%s "
                    "wall=%.2fs\n",
                    r.static_config.c_str(),
                    static_cast<long long>(r.switches),
                    r.lossless ? "yes" : "NO", r.wall_seconds);
    }

    std::printf("\nBENCH_JSON {\"bench\":\"adaptive\",\"quick\":%s,"
                "\"scenarios\":[",
                quick ? "true" : "false");
    for (size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult &r = results[i];
        std::printf(
            "%s{\"name\":\"%s\",\"goal\":\"%s\","
            "\"static_jpf_uj\":%.3f,\"oracle_jpf_uj\":%.3f,"
            "\"adaptive_jpf_uj\":%.3f,\"static_fps\":%.3f,"
            "\"oracle_fps\":%.3f,\"adaptive_fps\":%.3f,"
            "\"static_gain\":%.4f,\"oracle_gap_energy\":%.4f,"
            "\"oracle_gap_fps\":%.4f,\"switches\":%lld,"
            "\"lossless\":%s,\"wall_s\":%.3f}",
            i ? "," : "", r.name.c_str(),
            r.energy_goal ? "min-energy" : "max-fps",
            r.stat.jpf_j * 1e6, r.oracle.jpf_j * 1e6,
            r.adaptive.jpf_j * 1e6, r.stat.fps, r.oracle.fps,
            r.adaptive.fps, r.staticGain(), r.oracleGapEnergy(),
            r.oracleGapFps(), static_cast<long long>(r.switches),
            r.lossless ? "true" : "false", r.wall_seconds);
    }
    std::printf("]}\n");

    if (!all_pass) {
        std::fprintf(stderr, "\nbench_adaptive: GATES FAILED\n");
        return 1;
    }
    std::printf("\nall gates passed: adaptive within %.0f%% of oracle "
                "everywhere, ahead of best-static on every "
                "non-stationary trace\n",
                100.0 * kOracleTolerance);
    return 0;
}
