/**
 * @file
 * Commissioning the face-authentication camera: the one recipe that
 * trains its two models.
 *
 * A WISPCam-class deployment is set up once: the 400-8-1 network learns
 * the enrolled user from the LFW-substitute dataset, and the Viola-Jones
 * cascade learns faces against synthetic clutter and windows cut from
 * the installation's own background footage. Tests, benches and
 * examples all run the camera on models trained here, so they agree on
 * what "the trained camera" is.
 */

#ifndef INCAM_FA_MODELS_HH
#define INCAM_FA_MODELS_HH

#include "fa/auth.hh"
#include "vj/train.hh"
#include "workload/video.hh"

namespace incam {

/** The trained models an FA camera runs, and how cascade training went. */
struct FaModels
{
    AuthNet auth;              ///< authenticates the video's enrolled user
    Cascade cascade;           ///< face detector
    CascadeTrainReport report; ///< cascade training statistics
};

/**
 * Train the FA camera's models for @p video's scene and enrolled user.
 * The cascade's background negatives come from the video's first 40
 * frames, which are rendered once. Deterministic: the same video gives
 * bit-identical models. The video needs at least 40 frames.
 */
FaModels trainFaModels(const SecurityVideo &video);

} // namespace incam

#endif // INCAM_FA_MODELS_HH
