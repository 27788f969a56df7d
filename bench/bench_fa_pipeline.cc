/**
 * @file
 * E5 — the full face-authentication camera evaluation (Section III).
 *
 * Runs the synthetic security video through every pipeline composition
 * — NN alone, motion+NN, motion+VJ+NN — on the accelerator SoC and on
 * the general-purpose microcontroller baseline, plus the "no compute,
 * offload everything" WISPCam-style configuration. Reports the
 * per-stage funnel, the energy ledger, average power at the 1 FPS
 * capture rate, and the frame rate sustainable on harvested RF power.
 *
 * Paper results to reproduce in shape:
 *   - progressive filtering slashes NN work and total energy;
 *   - the accelerator SoC operates sub-mW and far below the MCU;
 *   - raw-image offload over backscatter is the worst option;
 *   - the staged workload yields a ~0% effective miss rate.
 */

#include "bench_common.hh"
#include "common/table.hh"
#include "core/network.hh"
#include "fa/fa_pipeline.hh"
#include "fa/models.hh"

using namespace incam;

int
main()
{
    banner("E5 (Section III)", "face-authentication camera, end to end");
    paperSays("filtered multi-accelerator pipeline runs sub-mW on "
              "harvested energy and beats a GP microprocessor");

    // --- workload ---
    SecurityVideoConfig vc;
    vc.frames = 240;
    vc.visits = 6;
    vc.enrolled_fraction = 0.5;
    vc.seed = 99;
    const SecurityVideo video(vc);
    std::printf("video: %d frames @1 FPS, %d face frames, %d motion "
                "frames\n",
                video.frameCount(), video.faceFrames(),
                video.motionFrames());

    // --- models ---
    const FaModels models = trainFaModels(video);
    std::printf("authentication net: 400-8-1, held-out error %.2f%%\n",
                100.0 * models.auth.test_error);

    // --- configurations ---
    struct Row
    {
        const char *name;
        bool md, vj;
        NnPlatform platform;
    };
    const Row rows[] = {
        {"NN only (ASIC)", false, false, NnPlatform::SnnapAsic},
        {"MD + NN (ASIC)", true, false, NnPlatform::SnnapAsic},
        {"MD + VJ + NN (ASIC)", true, true, NnPlatform::SnnapAsic},
        {"NN only (MCU)", false, false, NnPlatform::Mcu},
        {"MD + VJ + NN (MCU)", true, true, NnPlatform::Mcu},
    };

    const RfHarvesterConfig rf;
    const Power harvest3m = harvestedPower(rf, 3.0);

    TableWriter table({"pipeline", "NN infs", "E/frame (uJ)",
                       "P @1FPS (uW)", "FPS @3m harvest",
                       "frame miss %", "visit miss %", "FP %"});

    for (const Row &row : rows) {
        FaConfig cfg;
        cfg.use_motion = row.md;
        cfg.use_facedetect = row.vj;
        cfg.nn_platform = row.platform;
        cfg.detector.min_neighbors = 1;
        cfg.detector.adaptive_step = true;
        cfg.detector.adaptive_frac = 0.1;
        FaCameraSim sim(cfg, row.vj ? &models.cascade : nullptr,
                        models.auth.net);
        const FaRunResult res = sim.run(video);
        const double fp_rate =
            100.0 * static_cast<double>(res.auth.fp) /
            std::max<uint64_t>(1, res.auth.fp + res.auth.tn);
        table.addRow(
            {row.name,
             TableWriter::num(
                 static_cast<long long>(res.counts.nn_inferences)),
             TableWriter::num(res.perFrame().uj(), 2),
             TableWriter::num(
                 res.averagePower(FrameRate::fps(1.0)).uw(), 1),
             TableWriter::num(res.sustainableFps(harvest3m), 2),
             TableWriter::num(100.0 * res.auth.missRate(), 1),
             TableWriter::num(100.0 * res.visitMissRate(), 1),
             TableWriter::num(fp_rate, 1)});
    }

    // Offload-raw baseline: capture + backscatter every frame.
    {
        const SensorModel sensor;
        const NetworkLink radio = backscatterUplink();
        const Energy per_frame =
            sensor.captureEnergy(vc.width, vc.height) +
            radio.transferEnergy(
                sensor.frameBytes(vc.width, vc.height));
        table.addRow(
            {"offload raw (WISPCam)", "0",
             TableWriter::num(per_frame.uj(), 2),
             TableWriter::num(per_frame.uj(), 1), // 1 FPS -> uW == uJ/f
             TableWriter::num(harvest3m.w() / per_frame.j(), 2), "-",
             "-", "-"});
    }

    table.print("pipeline compositions on the security-video workload");
    std::printf("\nharvested budget at 3 m: %s\n",
                harvest3m.toString().c_str());
    std::printf("shape checks: energy falls with each added filter; "
                "ASIC << MCU; offload-raw worst.\n");
    return 0;
}
