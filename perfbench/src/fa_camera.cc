/**
 * @file
 * fa_camera — case study 1 as the runtime executes it.
 *
 * One face-authentication camera runs the real MotionGate -> VjCrop ->
 * NnScore executor chain in the Inline shape on the wall clock,
 * unpaced, with executor gating and the cut after the last block (the
 * uplink carries 1-byte verdicts). The source loops the default
 * security video, pre-rendered in setup. Setup also trains the MLP and
 * the cascade with the test_fa recipe; its negative source crops the
 * pre-rendered backgrounds instead of re-rendering a frame per call.
 */

#include <algorithm>
#include <cstdio>

#include "core/network.hh"
#include "fa/auth.hh"
#include "fa/scenario.hh"
#include "harness.hh"
#include "image/integral.hh"
#include "image/ops.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/runtime.hh"
#include "vj/detector.hh"
#include "vj/train.hh"
#include "workload/dataset.hh"
#include "workload/video.hh"

using namespace incam;

namespace perfbench {
namespace {

constexpr int kCropSide = 20;          ///< NN input side (400-8-1 net)
constexpr int kBackgroundFrames = 40;  ///< recipe: negatives from frames 0-39
constexpr int kIdentities = 24;        ///< people in the MLP's dataset
constexpr double kGroupIou = 0.3;      ///< Detector::detect's grouping IoU
/** Setups per untraced invocation; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/** Video passes per timed run; an untraced invocation makes
 *  fixedRuns(--seconds, kNominalRunS, 3) such runs. */
constexpr int kPassesPerRun = 4;
constexpr double kNominalRunS = 0.6;
/** Video passes per traced (and matching untraced) run: fixed work, so
 *  per-layer totals compare across invocations. */
constexpr int kTracedPasses = 8;

/** The detector parameters of test_fa's full configuration. */
DetectorParams
detectorParams()
{
    DetectorParams p;
    p.min_neighbors = 1;
    p.scale_factor = 1.25;
    p.adaptive_step = true;
    p.adaptive_frac = 0.1;
    return p;
}

/** Camera inputs, the models trained on them, and what training cost. */
struct FaSetup
{
    std::vector<ImageU8> video; ///< pre-rendered security video
    uint64_t enrolled = 0;      ///< the identity the camera authenticates
    std::unique_ptr<AuthNet> auth;
    Cascade cascade;
    CascadeTrainReport train_report;
    double render_s = 0.0;
    double nn_train_s = 0.0;
    double vj_train_s = 0.0;
    double negsrc_s = 0.0; ///< traced setups only
    int64_t negsrc_calls = 0;
};

FaSetup
buildSetup(uint64_t seed, bool traced)
{
    FaSetup s;
    const double t0 = hostNow();
    // The default scene (600 frames, 160x120, seed 99); the workload
    // seed picks which of the dataset's people the camera authenticates,
    // which changes the faces in the video and the MLP's labels but not
    // how much of the video moves.
    SecurityVideoConfig vc;
    vc.enrolled_identity = subSeed(seed, 1) % kIdentities;
    const SecurityVideo video(vc);
    s.enrolled = vc.enrolled_identity;
    s.video.reserve(static_cast<size_t>(video.frameCount()));
    for (int i = 0; i < video.frameCount(); ++i) {
        s.video.push_back(video.frame(i).image);
    }

    // test_fa's authentication-net recipe.
    FaceDatasetConfig dc;
    dc.identities = kIdentities;
    dc.per_identity = 20;
    dc.size = kCropSide;
    dc.hard = false;
    dc.framing_jitter = 0.15;
    dc.seed = 7;
    const FaceDataset ds = FaceDataset::generate(dc);

    // test_fa's cascade positives.
    Rng rng(31);
    std::vector<ImageU8> positives;
    for (int i = 0; i < 250; ++i) {
        const FaceParams id = identityParams(rng.below(40));
        positives.push_back(
            toU8(renderFace(id, easyVariation(rng), kCropSide)));
    }
    const double t1 = hostNow();
    s.render_s = t1 - t0;

    TrainConfig tc;
    tc.epochs = 120;
    s.auth = std::make_unique<AuthNet>(trainAuthNet(
        ds, vc.enrolled_identity, MlpTopology{{400, 8, 1}}, tc));
    const double t2 = hostNow();
    s.nn_train_s = t2 - t1;

    // The recipe's negative source, drawing the same random sequence,
    // but cropping pre-rendered background frames.
    const std::vector<ImageU8> &frames = s.video;
    const NegativeSource negatives = [&frames](Rng &r) {
        if (r.chance(0.5)) {
            return toU8(renderDistractor(r.next(), kCropSide));
        }
        const ImageU8 &f =
            frames[static_cast<size_t>(r.below(kBackgroundFrames))];
        const int side = 20 + static_cast<int>(r.below(40));
        const int x = static_cast<int>(r.below(f.width() - side));
        const int y = static_cast<int>(r.below(f.height() - side));
        return resizeNearest(crop(f, Rect{x, y, side, side}), kCropSide,
                             kCropSide);
    };
    const NegativeSource timed_negatives = [&negatives, &s](Rng &r) {
        const double n0 = hostNow();
        ImageU8 img = negatives(r);
        s.negsrc_s += hostNow() - n0;
        ++s.negsrc_calls;
        return img;
    };
    CascadeTrainConfig cc;
    cc.max_features = 700;
    cc.max_stages = 6;
    cc.max_stumps_per_stage = 12;
    cc.negatives_per_stage = 400;
    cc.seed = 11;
    s.cascade = CascadeTrainer(cc).train(
        positives, traced ? timed_negatives : negatives, &s.train_report);
    s.vj_train_s = hostNow() - t2;
    return s;
}

/** One run of the camera and everything its taps saw. */
struct FaRun
{
    RuntimeReport report;
    double host_s = 0.0;
    std::vector<TapRecord> motion, vj, nn;
    double motion_busy = 0.0, vj_busy = 0.0, nn_busy = 0.0;
};

/**
 * Run the camera once over @p frames frames of the looped video. Traced
 * runs time every executor call and attach @p obs_cfg.
 */
FaRun
runCamera(const FaSetup &s, int64_t frames, bool traced,
          const obs::ObsConfig &obs_cfg = {})
{
    const Pipeline pipe = buildFaPipeline(nominalFaMeasurements());
    RuntimeOptions ro;
    ro.frames = frames;
    ro.gating = GatingMode::Executor;
    ro.pace_stages = false;
    ro.pace_link = false;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 3),
                         backscatterUplink(), ro);

    FaRun run;
    run.motion.reserve(static_cast<size_t>(frames));
    run.vj.reserve(static_cast<size_t>(frames));
    run.nn.reserve(static_cast<size_t>(frames));
    auto motion = std::make_unique<TapExecutor>(
        std::make_unique<MotionGateExecutor>(), traced, &run.motion);
    auto vj = std::make_unique<TapExecutor>(
        std::make_unique<VjCropExecutor>(s.cascade, detectorParams(),
                                         kCropSide),
        traced, &run.vj);
    auto nn = std::make_unique<TapExecutor>(
        std::make_unique<NnScoreExecutor>(s.auth->net), traced, &run.nn);
    const TapExecutor *taps[] = {motion.get(), vj.get(), nn.get()};
    sp.setExecutor(0, std::move(motion));
    sp.setExecutor(1, std::move(vj));
    sp.setExecutor(2, std::move(nn));
    const std::vector<ImageU8> &video = s.video;
    sp.setFrameFill([&video](Frame &f) {
        f.image = video[static_cast<size_t>(f.id) % video.size()];
    });

    RunOptions opts;
    opts.mode = ExecutionMode::Inline;
    opts.obs = obs_cfg;
    const double t0 = hostNow();
    run.report = sp.run(opts);
    run.host_s = hostNow() - t0;
    run.motion_busy = taps[0]->busySeconds();
    run.vj_busy = taps[1]->busySeconds();
    run.nn_busy = taps[2]->busySeconds();
    return run;
}

/**
 * Checks every frame's verdict against a direct serial call of the same
 * kernels on the same frame: MotionDetector::update, the strongest
 * Detector::detect box, extractCrop, Mlp::forward. Detection and
 * scoring are pure functions of the frame, so they are computed once
 * per distinct video frame and shared across runs.
 */
class VerdictChecker
{
  public:
    explicit VerdictChecker(const FaSetup &setup)
        : s(setup), detector(setup.cascade, detectorParams()),
          cache(setup.video.size())
    {
    }

    void
    check(const FaRun &run)
    {
        MotionDetector md;
        const LossLedger &l = run.report.ledger;
        size_t vi = 0, ni = 0;
        bool ok = static_cast<int64_t>(run.motion.size()) == l.offered;
        for (int64_t id = 0; id < l.offered && ok; ++id) {
            const size_t j = static_cast<size_t>(id) % s.video.size();
            const TapRecord &m = run.motion[static_cast<size_t>(id)];
            const bool moved = md.update(s.video[j]);
            ok = m.id == id && m.pass == moved;
            if (!ok || !moved) {
                continue;
            }
            const Expected &e = expected(j);
            ok = vi < run.vj.size() && run.vj[vi].id == id &&
                 run.vj[vi].pass == e.face;
            ++vi;
            if (!ok || !e.face) {
                continue;
            }
            ok = ni < run.nn.size() && run.nn[ni].id == id &&
                 run.nn[ni].score == e.score;
            ++ni;
        }
        verdicts_ok = verdicts_ok && ok && vi == run.vj.size() &&
                      ni == run.nn.size();

        const int64_t motion_gated =
            static_cast<int64_t>(run.motion.size() - run.vj.size());
        const int64_t no_face =
            static_cast<int64_t>(run.vj.size() - run.nn.size());
        ledger_ok = ledger_ok && l.consistent() &&
                    l.offered == run.report.source_frames &&
                    l.delivered == static_cast<int64_t>(run.nn.size()) &&
                    l.dropped_gated == motion_gated + no_face &&
                    l.dropped == l.dropped_gated;
        offered += l.offered;
        gated_motion += motion_gated;
        gated_face += no_face;
        delivered += l.delivered;
    }

    void
    report(Result &res) const
    {
        std::printf("fa_camera stats: offered %lld, motion-gated %lld, "
                    "no-face %lld, delivered %lld\n",
                    static_cast<long long>(offered),
                    static_cast<long long>(gated_motion),
                    static_cast<long long>(gated_face),
                    static_cast<long long>(delivered));
        res.check(verdicts_ok,
                  "fa_camera: verdicts equal the serial kernel chain");
        res.check(ledger_ok,
                  "fa_camera: ledger balances (offered == delivered + gated)");
    }

  private:
    struct Expected
    {
        bool known = false;
        bool face = false;
        double score = 0.0;
    };

    const Expected &
    expected(size_t j)
    {
        Expected &e = cache[j];
        if (!e.known) {
            const auto dets = detector.detect(s.video[j]);
            e.known = true;
            e.face = !dets.empty();
            if (e.face) {
                const auto best = std::max_element(
                    dets.begin(), dets.end(),
                    [](const Detection &a, const Detection &b) {
                        return a.neighbors < b.neighbors;
                    });
                const ImageU8 crop8 =
                    toU8(extractCrop(s.video[j], best->box, kCropSide));
                e.score =
                    s.auth->net.forward(cropToInput(toFloat(crop8))).front();
            }
        }
        return e;
    }

    const FaSetup &s;
    const Detector detector;
    std::vector<Expected> cache;
    bool verdicts_ok = true;
    bool ledger_ok = true;
    int64_t offered = 0, gated_motion = 0, gated_face = 0, delivered = 0;
};

int64_t
passes(const std::vector<TapRecord> &taps)
{
    return std::count_if(taps.begin(), taps.end(),
                         [](const TapRecord &t) { return t.pass; });
}

} // namespace

Result
runFaCamera(const Args &args)
{
    Result res;
    if (!args.trace) {
        std::vector<double> setups;
        FaSetup s;
        for (int i = 0; i < kSetupRepeats; ++i) {
            const double t0 = hostNow();
            s = buildSetup(args.seed, false);
            setups.push_back(hostNow() - t0);
        }
        std::printf("fa_camera setup: render %.3f s, nn train %.3f s, "
                    "cascade train %.3f s (%d stages, %zu stumps); "
                    "enrolled identity %llu\n",
                    s.render_s, s.nn_train_s, s.vj_train_s,
                    s.train_report.stages, s.train_report.total_stumps,
                    static_cast<unsigned long long>(s.enrolled));

        // Closed loop of fixed-size runs, about --seconds of host time.
        const int64_t run_frames =
            kPassesPerRun * static_cast<int64_t>(s.video.size());
        const int64_t runs = fixedRuns(args.seconds, kNominalRunS, 3);
        VerdictChecker checker(s);
        std::vector<double> rates, latency;
        double run_s = 0.0;
        for (int64_t r = 0; r < runs; ++r) {
            const FaRun run = runCamera(s, run_frames, false);
            run_s += run.host_s;
            rates.push_back(static_cast<double>(run_frames) / run.host_s);
            // Every frame the NN scores is delivered: its verdict only
            // crosses the unpaced 1-byte uplink step after this. A video
            // frame's latency in a run is the fastest of its passes: they
            // lie within half a second, and host interference only adds.
            std::vector<double> fastest(s.video.size(), -1.0);
            for (const TapRecord &t : run.nn) {
                const size_t j = static_cast<size_t>(t.id) % s.video.size();
                fastest[j] = fastest[j] < 0.0
                                 ? t.since_source_s
                                 : std::min(fastest[j], t.since_source_s);
            }
            for (double f : fastest) {
                if (f >= 0.0) {
                    latency.push_back(f);
                }
            }
            checker.check(run);
        }
        checker.report(res);
        res.attempted = runs * run_frames;
        res.failed = 0; // an executor error aborts the run (exit non-zero)
        std::printf("fa_camera: %zu runs of %lld frames in %.3f s; latency "
                    "over %zu (run, delivered video frame) pairs\n",
                    rates.size(), static_cast<long long>(run_frames), run_s,
                    latency.size());
        res.metric("frames_per_s", median(rates), "1/s");
        res.metric("frame_ms_p50", 1e3 * median(latency), "ms");
        res.metric("frame_ms_p99", 1e3 * nearestRank(latency, 0.99), "ms");
        res.metric("setup_s", median(setups), "s");
        res.metric("peak_rss_mb", peakRssMb(), "MB");
        return res;
    }

    // ---- traced run: per-layer metrics ----
    const FaSetup s = buildSetup(args.seed, true);
    const int64_t frames =
        kTracedPasses * static_cast<int64_t>(s.video.size());
    const FaRun plain = runCamera(s, frames, false);
    obs::TraceRecorder recorder(1u << 20);
    obs::MetricsRegistry registry;
    obs::ObsConfig oc;
    oc.recorder = &recorder;
    oc.registry = &registry;
    const FaRun run = runCamera(s, frames, true, oc);
    VerdictChecker checker(s);
    checker.check(run);
    checker.report(res);
    res.attempted = run.report.source_frames;

    // Replay the VJ kernels, one at a time, on exactly the frames the
    // VJ executor received.
    const Detector detector(s.cascade, detectorParams());
    CascadeStats stats;
    double integral_s = 0.0, raw_s = 0.0, group_s = 0.0;
    bool replay_ok = true;
    for (const TapRecord &t : run.vj) {
        const ImageU8 &img =
            s.video[static_cast<size_t>(t.id) % s.video.size()];
        const double t0 = hostNow();
        const IntegralImage ii(img);
        const double t1 = hostNow();
        const std::vector<Rect> hits = detector.rawHits(img, &stats);
        const double t2 = hostNow();
        const auto dets = groupDetections(hits, kGroupIou,
                                          detectorParams().min_neighbors);
        const double t3 = hostNow();
        integral_s += t1 - t0;
        raw_s += t2 - t1;
        group_s += t3 - t2;
        replay_ok = replay_ok && dets.empty() != t.pass;
    }
    res.check(replay_ok, "fa_camera: replayed VJ kernels match the executor");

    const double busy = run.motion_busy + run.vj_busy + run.nn_busy;
    std::printf("fa_camera traced: %lld frames, host %.3f s (untraced "
                "%.3f s); motion %.1f%%, vj %.1f%%, nn %.1f%%, runtime "
                "%.1f%%\n",
                static_cast<long long>(frames), run.host_s, plain.host_s,
                100.0 * run.motion_busy / run.host_s,
                100.0 * run.vj_busy / run.host_s,
                100.0 * run.nn_busy / run.host_s,
                100.0 * (run.host_s - busy) / run.host_s);
    std::printf("fa_camera training: stages %d, stumps %zu, negative "
                "source %lld calls, %.3f of %.3f s\n",
                s.train_report.stages, s.train_report.total_stumps,
                static_cast<long long>(s.negsrc_calls), s.negsrc_s,
                s.vj_train_s);

    const double vj_in = static_cast<double>(run.vj.size());
    res.metric("vj.busy_s", run.vj_busy, "s");
    res.metric("vj.scan_s", raw_s - integral_s, "s");
    res.metric("vj.group_s", group_s, "s");
    res.metric("image.integral_s", integral_s, "s");
    res.metric("vj.frames_in", vj_in, "count");
    res.metric("vj.pass_ratio",
               vj_in > 0 ? static_cast<double>(passes(run.vj)) / vj_in : 0,
               "ratio");
    res.metric("vj.windows", static_cast<double>(stats.windows), "count");
    res.metric("vj.features_per_window", stats.featuresPerWindow(),
               "count");
    const double md_in = static_cast<double>(run.motion.size());
    res.metric("motion.busy_s", run.motion_busy, "s");
    res.metric("motion.frames_in", md_in, "count");
    res.metric("motion.pass_ratio",
               static_cast<double>(passes(run.motion)) / md_in, "ratio");
    res.metric("nn.busy_s", run.nn_busy, "s");
    res.metric("nn.inferences", static_cast<double>(run.nn.size()),
               "count");
    res.metric("vj.train_s", s.vj_train_s, "s");
    res.metric("vj.train_negsrc_s", s.negsrc_s, "s");
    res.metric("vj.train_negsrc_calls",
               static_cast<double>(s.negsrc_calls), "count");
    res.metric("vj.train_stages", s.train_report.stages, "count");
    res.metric("vj.train_stumps",
               static_cast<double>(s.train_report.total_stumps), "count");
    res.metric("nn.train_s", s.nn_train_s, "s");
    res.metric("workload.render_s", s.render_s, "s");
    res.metric("runtime.overhead_s", run.host_s - busy, "s");
    res.metric("runtime.offered",
               static_cast<double>(run.report.ledger.offered), "count");
    res.metric("runtime.delivered",
               static_cast<double>(run.report.ledger.delivered), "count");
    res.metric("obs.overhead_ratio", run.host_s / plain.host_s, "ratio");
    res.metric("obs.events_recorded",
               static_cast<double>(recorder.sortedEvents().size()), "count");
    res.metric("obs.events_dropped", static_cast<double>(recorder.dropped()),
               "count");
    return res;
}

} // namespace perfbench
