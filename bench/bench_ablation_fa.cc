/**
 * @file
 * Ablation — detector parameters vs full-system energy (FA camera).
 *
 * The paper's conclusion: "design parameters for individual
 * accelerators can influence the full-system execution behavior." This
 * bench makes that concrete for case study 1: the VJ adaptive step
 * size (the Fig. 4c knob) simultaneously sets the face-detection
 * block's own energy (windows scanned), the NN stage's duty cycle
 * (candidates forwarded), and the application's visit miss rate. The
 * energy-optimal setting is *not* the accuracy-optimal one — the
 * whole-pipeline view is what picks the right point.
 */

#include "bench_common.hh"
#include "common/table.hh"
#include "fa/fa_pipeline.hh"
#include "fa/models.hh"

using namespace incam;

int
main()
{
    banner("Ablation", "VJ scan density vs full-system energy (FA)");
    paperSays("'design parameters for individual accelerators can "
              "influence the full-system execution behavior' (§V)");

    SecurityVideoConfig vc;
    vc.frames = 120;
    vc.visits = 5;
    vc.enrolled_fraction = 0.6;
    vc.seed = 99;
    const SecurityVideo video(vc);

    const FaModels models = trainFaModels(video);

    TableWriter table({"adaptive step", "VJ E/frame (uJ)",
                       "NN infs", "total E/frame (uJ)",
                       "visit miss %", "false visits"});
    for (double frac : {0.08, 0.12, 0.20, 0.30}) {
        FaConfig cfg;
        cfg.detector.min_neighbors = 1;
        cfg.detector.adaptive_step = true;
        cfg.detector.adaptive_frac = frac;
        FaCameraSim sim(cfg, &models.cascade, models.auth.net);
        const FaRunResult res = sim.run(video);
        const double vj_per_frame =
            res.counts.vj_frames
                ? res.energy.facedetect.uj() /
                      static_cast<double>(res.counts.vj_frames)
                : 0.0;
        table.addRow(
            {TableWriter::num(frac, 2),
             TableWriter::num(vj_per_frame, 2),
             TableWriter::num(
                 static_cast<long long>(res.counts.nn_inferences)),
             TableWriter::num(res.perFrame().uj(), 2),
             TableWriter::num(100.0 * res.visitMissRate(), 1),
             TableWriter::num(
                 static_cast<long long>(res.false_visits))});
    }
    table.print("scan density: detector energy vs application quality");
    std::printf("\ndenser scans burn VJ energy and surface more NN "
                "candidates; coarser scans are cheaper until they start "
                "missing whole visits. Picking this knob from Fig. 4c "
                "accuracy alone would overspend energy — the full-system "
                "view (this table) is the paper's point.\n");
    return 0;
}
