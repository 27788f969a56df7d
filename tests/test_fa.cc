/**
 * @file
 * End-to-end tests of the face-authentication camera (case study 1):
 * the per-stage funnel, the progressive-filtering energy result, the
 * accelerator-vs-microcontroller comparison, and the optimizer's
 * agreement with the paper's design choice.
 */

#include <gtest/gtest.h>

#include "core/optimizer.hh"
#include "fa/fa_pipeline.hh"
#include "fa/models.hh"
#include "fa/scenario.hh"

namespace incam {
namespace {

/** Everything the camera needs: a video and the models trained on it. */
class FaFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        // Video: ten minutes at 1 FPS, a handful of visits.
        SecurityVideoConfig vc;
        vc.frames = 240;
        vc.visits = 6;
        vc.enrolled_fraction = 0.5;
        vc.seed = 99;
        video = new SecurityVideo(vc);
        models = new FaModels(trainFaModels(*video));
    }
    static void
    TearDownTestSuite()
    {
        delete video;
        delete models;
        video = nullptr;
        models = nullptr;
    }

    static FaConfig
    fullConfig()
    {
        FaConfig cfg;
        cfg.use_motion = true;
        cfg.use_facedetect = true;
        cfg.detector.min_neighbors = 1;
        cfg.detector.scale_factor = 1.25;
        cfg.detector.adaptive_step = true;
        cfg.detector.adaptive_frac = 0.1;
        return cfg;
    }

    static SecurityVideo *video;
    static FaModels *models;
};

SecurityVideo *FaFixture::video = nullptr;
FaModels *FaFixture::models = nullptr;

TEST_F(FaFixture, FunnelNarrowsStageByStage)
{
    FaCameraSim sim(fullConfig(), &models->cascade, models->auth.net);
    const FaRunResult res = sim.run(*video);

    EXPECT_EQ(res.counts.frames, 240u);
    // Motion detection must gate out the (majority) empty frames.
    EXPECT_LT(res.counts.motion_frames, res.counts.frames / 2);
    EXPECT_GT(res.counts.motion_frames, 0u);
    // VJ runs only on motion frames.
    EXPECT_EQ(res.counts.vj_frames, res.counts.motion_frames);
    // The NN runs at most a few times per VJ frame.
    EXPECT_LE(res.counts.nn_inferences, 4 * res.counts.vj_frames);
}

TEST_F(FaFixture, AuthenticationQualityOnStagedWorkload)
{
    FaCameraSim sim(fullConfig(), &models->cascade, models->auth.net);
    const FaRunResult res = sim.run(*video);

    // The paper reports a 0% *true* miss rate on its staged real-world
    // workload: a visit spans many frames, and authenticating any one
    // of them authenticates the visit. Every enrolled visit must be
    // caught.
    EXPECT_GT(res.enrolled_visits, 0u);
    EXPECT_EQ(res.visitMissRate(), 0.0)
        << res.caught_visits << "/" << res.enrolled_visits
        << " enrolled visits caught";
    EXPECT_GT(res.auth.tp, 0u);
    // False-positive rate on empty/stranger frames stays low.
    const double fpr =
        static_cast<double>(res.auth.fp) /
        std::max<uint64_t>(1, res.auth.fp + res.auth.tn);
    EXPECT_LT(fpr, 0.10);
}

TEST_F(FaFixture, ProgressiveFilteringSavesEnergy)
{
    // The paper's central FA result: "even the most power-efficient
    // neural network design performs significantly better when adding
    // computation earlier in the pipeline to effectively filter the
    // image data."
    FaConfig nn_only = fullConfig();
    nn_only.use_motion = false;
    nn_only.use_facedetect = false;

    FaConfig md_nn = fullConfig();
    md_nn.use_facedetect = false;

    FaConfig full = fullConfig();

    const FaRunResult r_nn =
        FaCameraSim(nn_only, nullptr, models->auth.net).run(*video);
    const FaRunResult r_md =
        FaCameraSim(md_nn, nullptr, models->auth.net).run(*video);
    const FaRunResult r_full =
        FaCameraSim(full, &models->cascade, models->auth.net).run(*video);

    // Each added filter slashes NN work...
    EXPECT_LT(r_md.counts.nn_inferences, r_nn.counts.nn_inferences / 2);
    EXPECT_LT(r_full.counts.nn_inferences, r_md.counts.nn_inferences);
    // ...and total energy drops monotonically.
    EXPECT_LT(r_md.energy.total().j(), r_nn.energy.total().j());
    EXPECT_LT(r_full.energy.total().j(), r_md.energy.total().j());
}

TEST_F(FaFixture, AcceleratorBeatsMicrocontroller)
{
    FaConfig asic_cfg = fullConfig();
    FaConfig mcu_cfg = fullConfig();
    mcu_cfg.nn_platform = NnPlatform::Mcu;

    FaCameraSim asic_sim(asic_cfg, &models->cascade, models->auth.net);
    FaCameraSim mcu_sim(mcu_cfg, &models->cascade, models->auth.net);

    // Identical math, very different energy.
    const Energy e_asic = asic_sim.nnInferenceEnergy();
    const Energy e_mcu = mcu_sim.nnInferenceEnergy();
    EXPECT_GT(e_mcu.j(), 20.0 * e_asic.j());

    const FaRunResult r_asic = asic_sim.run(*video);
    const FaRunResult r_mcu = mcu_sim.run(*video);
    EXPECT_EQ(r_asic.counts.nn_inferences, r_mcu.counts.nn_inferences);
    EXPECT_GT(r_mcu.energy.nn.j(), 20.0 * r_asic.energy.nn.j());
}

TEST_F(FaFixture, SubMilliwattAverageAtOneFps)
{
    // WISPCam captures at 1 FPS; the whole filtered pipeline must
    // average well under a milliwatt there (abstract: "sub-mW range").
    FaCameraSim sim(fullConfig(), &models->cascade, models->auth.net);
    const FaRunResult res = sim.run(*video);
    EXPECT_LT(res.averagePower(FrameRate::fps(1.0)).mw(), 1.0);
}

TEST_F(FaFixture, HarvestedBudgetSustainsContinuousOperation)
{
    FaCameraSim sim(fullConfig(), &models->cascade, models->auth.net);
    const FaRunResult res = sim.run(*video);
    // At 3 m from a 4 W reader (~150 uW) the filtered pipeline must
    // sustain at least the WISPCam's 1 FPS.
    const RfHarvesterConfig rf;
    const Power budget = harvestedPower(rf, 3.0);
    EXPECT_GT(res.sustainableFps(budget), 1.0);
}

TEST_F(FaFixture, BitExactAcrossPlatforms)
{
    // MCU and accelerator run the same quantized network; their
    // authentication decisions must agree frame by frame — the totals
    // must match exactly.
    FaConfig asic_cfg = fullConfig();
    FaConfig mcu_cfg = fullConfig();
    mcu_cfg.nn_platform = NnPlatform::Mcu;
    const FaRunResult a =
        FaCameraSim(asic_cfg, &models->cascade, models->auth.net).run(*video);
    const FaRunResult b =
        FaCameraSim(mcu_cfg, &models->cascade, models->auth.net).run(*video);
    EXPECT_EQ(a.counts.authenticated_frames,
              b.counts.authenticated_frames);
    EXPECT_EQ(a.auth.tp, b.auth.tp);
    EXPECT_EQ(a.auth.fp, b.auth.fp);
}

TEST_F(FaFixture, CorePipelineOptimizerAgreesWithPaper)
{
    // Measure the stages, build the generic pipeline, and check the
    // optimizer chooses the paper's design: all blocks in camera on the
    // accelerators (offloading raw frames over backscatter is hopeless).
    FaConfig full = fullConfig();
    FaConfig scan_cfg = fullConfig();
    scan_cfg.use_facedetect = false;
    FaConfig scan_mcu_cfg = scan_cfg;
    scan_mcu_cfg.nn_platform = NnPlatform::Mcu;
    const FaRunResult r_full =
        FaCameraSim(full, &models->cascade, models->auth.net).run(*video);
    const FaRunResult r_scan =
        FaCameraSim(scan_cfg, nullptr, models->auth.net).run(*video);
    const FaRunResult r_scan_mcu =
        FaCameraSim(scan_mcu_cfg, nullptr, models->auth.net).run(*video);

    const FaMeasurements m = measureFa(r_full, r_scan, r_scan_mcu,
                                       video->cfg(), full.nn_input);
    const Pipeline pipe = buildFaPipeline(m);
    const PipelineOptimizer opt(pipe, backscatterUplink());

    OptimizerGoal goal;
    goal.kind = OptimizerGoal::Kind::MinEnergy;
    const ConfigResult best = opt.best(goal);

    // Everything in camera...
    EXPECT_EQ(best.config.cut, pipe.blockCount());
    // ...with both optional filters enabled...
    EXPECT_TRUE(best.config.include[0]);
    EXPECT_TRUE(best.config.include[1]);
    // ...and the NN on the ASIC, not the MCU.
    EXPECT_EQ(best.config.impl[2], Impl::Asic);

    // Raw offload must be orders of magnitude worse.
    PipelineConfig raw;
    raw.include.assign(3, true);
    raw.impl.assign(3, Impl::Asic);
    raw.cut = 0;
    const PipelineEvaluator eval(pipe, backscatterUplink());
    EXPECT_GT(eval.evaluateEnergy(raw).total().j(),
              50.0 * best.energy.total().j());
}

TEST_F(FaFixture, MeasurementsAreInternallyConsistent)
{
    FaConfig full = fullConfig();
    FaConfig scan_cfg = fullConfig();
    scan_cfg.use_facedetect = false;
    FaConfig scan_mcu_cfg = scan_cfg;
    scan_mcu_cfg.nn_platform = NnPlatform::Mcu;
    const FaRunResult r_full =
        FaCameraSim(full, &models->cascade, models->auth.net).run(*video);
    const FaRunResult r_scan =
        FaCameraSim(scan_cfg, nullptr, models->auth.net).run(*video);
    const FaRunResult r_scan_mcu =
        FaCameraSim(scan_mcu_cfg, nullptr, models->auth.net).run(*video);
    const FaMeasurements m = measureFa(r_full, r_scan, r_scan_mcu,
                                       video->cfg(), full.nn_input);

    EXPECT_GT(m.motion_pass, 0.0);
    EXPECT_LT(m.motion_pass, 0.6);
    EXPECT_GT(m.vj_per_frame.j(), m.motion_per_frame.j());
    EXPECT_GT(m.nn_mcu_per_frame.j(), m.nn_asic_per_frame.j());
    // VJ must leave only a small fraction of the blind-scan NN work.
    EXPECT_LT(m.vj_pass, 0.25);
    EXPECT_DOUBLE_EQ(m.frame_bytes.b(), 160.0 * 120.0);
}

} // namespace
} // namespace incam
