/**
 * @file
 * One frame through the 3D-360 VR rig (case study 2).
 *
 * Synthesizes a 16-camera ring, runs the full B1..B4 pipeline at proxy
 * resolution — demosaic, pairwise rectification, bilateral-space
 * stereo, stereo-panorama stitching — and writes the outputs
 * (incam_vr_pano_{left,right}.ppm, incam_vr_depth.pgm) into the output
 * directory (default /tmp), printing their paths. Then prints the
 * full-scale cost model's verdict for the same pipeline: the Fig. 10
 * computation/communication table.
 *
 * Run: ./build/example_vr_rig_stream [out_dir]
 */

#include <cstdio>
#include <string>

#include "image/image_io.hh"
#include "image/metrics.hh"
#include "image/ops.hh"
#include "vr/blocks.hh"
#include "vr/pipeline_model.hh"

using namespace incam;

namespace {

ImageU8
toU8Rgb(const ImageF &img)
{
    return toU8(img);
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("== 16-camera 3D-360 VR rig, one frame ==\n\n");

    RigConfig rc;
    rc.cameras = 16;
    rc.cam_width = 160;
    rc.cam_height = 120;
    rc.overlap = 0.5;
    rc.layers = 6;
    rc.max_disparity = 12;
    rc.seed = 42;
    const CameraRig rig(rc);
    std::printf("rig: %d cameras, %d px stride, %d-column panorama\n",
                rig.cameras(), rig.step(), rig.worldColumns());

    BssaConfig bssa;
    bssa.max_disparity = 14;
    bssa.solver_iterations = 10;
    const VrPipeline pipeline(rig, bssa);

    std::printf("processing B1 (demosaic) .. B4 (stitch) at proxy "
                "resolution...\n");
    const VrFrameBundle bundle = pipeline.processFrame();

    // Alignment sanity: the estimator recovered the camera stride.
    int offset_err = 0;
    for (const auto &pair : bundle.pairs) {
        offset_err = std::max(offset_err,
                              std::abs(pair.offset - rig.step()));
    }
    std::printf("B2 alignment: worst stride error %d px\n", offset_err);

    // Depth sanity against the rig's ground truth.
    double mae = 0.0;
    int n = 0;
    for (size_t k = 0; k < bundle.depth.size(); ++k) {
        const ImageF truth = rig.pairDisparity(static_cast<int>(k));
        const ImageF &got = bundle.depth[k].disparity;
        const int w = std::min(truth.width(), got.width());
        for (int y = 4; y < got.height() - 4; ++y) {
            for (int x = 8; x < w - 4; ++x) {
                mae += std::fabs(got.at(x, y) - truth.at(x, y));
                ++n;
            }
        }
    }
    std::printf("B3 depth: mean abs disparity error %.2f px over %d "
                "pairs\n",
                mae / n, static_cast<int>(bundle.depth.size()));

    const std::string out =
        std::string(argc > 1 ? argv[1] : "/tmp") + "/incam_vr_";
    writePpm(toU8Rgb(bundle.pano_left), out + "pano_left.ppm");
    writePpm(toU8Rgb(bundle.pano_right), out + "pano_right.ppm");
    // Depth visualization: first pair, normalized.
    ImageF depth_vis = bundle.depth[0].disparity;
    for (float &v : depth_vis) {
        v /= static_cast<float>(bssa.max_disparity);
    }
    writePgm(toU8(depth_vis), out + "depth.pgm");
    std::printf("wrote %spano_left.ppm, %spano_right.ppm, %sdepth.pgm\n",
                out.c_str(), out.c_str(), out.c_str());

    // --- the full-scale verdict (Fig. 10) ------------------------------
    std::printf("\nfull-scale cost model (16x 4K cameras, 25 GbE):\n");
    const VrPipelineModel model;
    for (const auto &row : model.figure10()) {
        std::printf("  %-22s total %6.2f FPS %s\n", row.name.c_str(),
                    row.total_fps, row.realtime ? "<- real-time" : "");
    }
    std::printf("\nonly the fully in-camera FPGA pipeline sustains the "
                "30 FPS target (the paper's conclusion).\n");
    return 0;
}
