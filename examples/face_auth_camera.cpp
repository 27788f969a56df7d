/**
 * @file
 * End-to-end battery-free face-authentication camera (case study 1).
 *
 * Builds the full Fig. 2 pipeline — motion detection, Viola-Jones face
 * detection, and the 400-8-1 authentication NN on the cycle-level
 * SNNAP accelerator — trains its models from scratch on synthetic
 * data, runs a simulated security video, and reports the stage funnel,
 * the energy ledger, and how far from an RFID reader the camera could
 * operate continuously. Also writes a contact sheet of annotated
 * frames (detections drawn as boxes) to incam_fa_frame_*.pgm in the
 * output directory (default /tmp) and prints their paths.
 *
 * Run: ./build/example_face_auth_camera [out_dir]
 */

#include <cstdio>
#include <string>

#include "fa/fa_pipeline.hh"
#include "fa/models.hh"
#include "image/image_io.hh"
#include "image/ops.hh"

using namespace incam;

int
main(int argc, char **argv)
{
    const std::string out_dir = argc > 1 ? argv[1] : "/tmp";
    std::printf("== battery-free face-authentication camera ==\n\n");

    // --- workload: a night of security footage at 1 FPS ----------------
    SecurityVideoConfig vc;
    vc.frames = 300;
    vc.visits = 7;
    vc.enrolled_fraction = 0.5;
    vc.seed = 2024;
    const SecurityVideo video(vc);
    std::printf("video: %d frames, %d with faces, %d with motion\n",
                video.frameCount(), video.faceFrames(),
                video.motionFrames());

    // --- commission: train the authenticator and the face detector -----
    std::printf("training 400-8-1 authentication net and Viola-Jones "
                "cascade...\n");
    const FaModels models = trainFaModels(video);
    std::printf("  held-out classification error: %.2f%% (paper: 5.9%%)\n",
                100.0 * models.auth.test_error);
    std::printf("  %d stages, %zu stumps, training TPR %.1f%%\n",
                models.report.stages, models.report.total_stumps,
                100.0 * models.report.final_tpr);

    // --- run the camera -------------------------------------------------
    FaConfig cfg;
    cfg.detector.min_neighbors = 1;
    cfg.detector.adaptive_step = true;
    cfg.detector.adaptive_frac = 0.1;
    FaCameraSim sim(cfg, &models.cascade, models.auth.net);
    std::printf("\nrunning the pipeline over %d frames...\n",
                video.frameCount());
    const FaRunResult res = sim.run(video);

    std::printf("\nstage funnel:\n");
    std::printf("  frames captured      %8llu\n",
                (unsigned long long)res.counts.frames);
    std::printf("  motion frames        %8llu\n",
                (unsigned long long)res.counts.motion_frames);
    std::printf("  VJ detections        %8llu\n",
                (unsigned long long)res.counts.vj_detections);
    std::printf("  NN inferences        %8llu\n",
                (unsigned long long)res.counts.nn_inferences);
    std::printf("  authenticated frames %8llu\n",
                (unsigned long long)res.counts.authenticated_frames);

    std::printf("\nenergy ledger (whole run):\n");
    std::printf("  sensor       %s\n", res.energy.sensor.toString().c_str());
    std::printf("  motion       %s\n", res.energy.motion.toString().c_str());
    std::printf("  face detect  %s\n",
                res.energy.facedetect.toString().c_str());
    std::printf("  crop/rescale %s\n", res.energy.crop.toString().c_str());
    std::printf("  NN (SNNAP)   %s\n", res.energy.nn.toString().c_str());
    std::printf("  TOTAL        %s (%s per frame)\n",
                res.energy.total().toString().c_str(),
                res.perFrame().toString().c_str());

    std::printf("\nquality: %llu/%llu enrolled visits authenticated "
                "(visit miss %.1f%%), %llu false visit accepts\n",
                (unsigned long long)res.caught_visits,
                (unsigned long long)res.enrolled_visits,
                100.0 * res.visitMissRate(),
                (unsigned long long)res.false_visits);

    const Power p1fps = res.averagePower(FrameRate::fps(1.0));
    std::printf("\naverage power at 1 FPS: %s (sub-mW: %s)\n",
                p1fps.toString().c_str(),
                p1fps.mw() < 1.0 ? "yes" : "NO");
    const RfHarvesterConfig rf;
    std::printf("continuous-operation range from a 4 W reader: %.1f m\n",
                harvestingRange(rf, Power::watts(res.perFrame().j())));

    // --- contact sheet ---------------------------------------------------
    int written = 0;
    DetectorParams dp = cfg.detector;
    const Detector detector(models.cascade, dp);
    for (int f = 0; f < video.frameCount() && written < 4; ++f) {
        if (!video.truth(f).has_face) {
            continue;
        }
        VideoFrame frame = video.frame(f);
        for (const auto &d : detector.detect(frame.image)) {
            drawRect(frame.image, d.box, 255);
        }
        const std::string path = out_dir + "/incam_fa_frame_" +
                                 std::to_string(written) + ".pgm";
        writePgm(frame.image, path);
        std::printf("wrote %s\n", path.c_str());
        ++written;
    }
    return 0;
}
