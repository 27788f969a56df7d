/**
 * @file
 * SimEngine — many pipelines, one event loop, model time.
 *
 * The threaded fleet runtime spends a host thread per camera and lets
 * the kernel's scheduler interleave them in wall time. SimEngine
 * replaces the kernel: every camera is an event source on its own
 * VirtualClock, the binary-heap EventScheduler totally orders {source
 * cycles, transmission starts, retry backoffs, link departures} on
 * (time, camera, kind, seq), and one host core replays the whole
 * gateway in model time — 100k cameras are 100k clock cursors, not
 * 100k blocked threads.
 *
 * The engine does not reimplement the pipeline. It drives the exact
 * per-frame steps StreamingPipeline exposes for event composition —
 * nextFrame() / planDelivery() / txAttemptLost() / txBackoffWait() /
 * finishDelivery() — which are the same steps runInline() executes,
 * so a discrete-event run books frames through the same ledger and
 * telemetry code paths as every other execution shape. Stage and
 * source pacing happen *inside* nextFrame() against the camera's
 * VirtualClock; only the shared medium needs engine-side modeling,
 * which sim/SimLink provides as virtual-time weighted fair sharing.
 *
 * Two delivery regimes, mirroring SharedLink's:
 *
 *  - *Counting* (pace_link = false): a frame's whole retry schedule
 *    resolves synchronously at its emission instant — price, grant,
 *    hash-draw loss, accrued (never slept) backoff — exactly the
 *    branch deliverFrame() takes, so ledgers, energies and adaptive
 *    decisions are bit-identical to the threaded runtime.
 *
 *  - *Paced* (pace_link = true): each attempt is submitted to SimLink
 *    and the camera sits blocked in model time until the departure
 *    event resolves it; lost attempts reschedule after the jittered
 *    backoff. Fluid-fair sharing plays out exactly (virtual time), so
 *    paced discrete-event runs agree with the threaded fleet to the
 *    same tolerance the fleet's measured-vs-model gate uses.
 *
 * A camera that throws is failed in place: its endpoint is released
 * (the medium is work-conserving, survivors speed up), its remaining
 * events are ignored, and the first error is rethrown after every
 * surviving stream has wound down — the fleet contract.
 */

#ifndef INCAM_SIM_ENGINE_HH
#define INCAM_SIM_ENGINE_HH

#include <cstdint>
#include <deque>
#include <exception>
#include <string>
#include <vector>

#include "runtime/runtime.hh"
#include "sim/clock.hh"
#include "sim/scheduler.hh"
#include "sim/sim_link.hh"

namespace incam {

class NetworkTrace; // trace/trace.hh

namespace sim {

/** Discrete-event executor for a fleet of StreamingPipelines. */
class SimEngine
{
  public:
    struct Options
    {
        /** How the shared medium divides among cameras. */
        SharePolicy policy = SharePolicy::Fair;
        /** Model transmission airtime on the shared link; off, the
         *  counting regime prices traffic without occupying time. */
        bool pace_link = true;
        /** Time-varying link schedule; model time zero is trace time
         *  zero. Must outlive the engine. Null = stationary. */
        const NetworkTrace *trace = nullptr;
        /** Frame clock: with pacing fully off, camera i's frame n is
         *  sequenced at n / trace_fps, so cameras interleave on the
         *  frame clock instead of all at t = 0. */
        double trace_fps = 0.0;
    };

    SimEngine(NetworkLink link, Options options);

    /**
     * Register a camera. The pipeline must outlive the engine, must
     * not have a SharedLink attached (the engine owns delivery, and
     * StreamingPipeline::beginEventRun() panics on an attached link),
     * and must be put on this camera's clock — setClock(cameraClock())
     * — before run(). Returns the camera index (== link endpoint).
     */
    int addCamera(StreamingPipeline *pipeline, std::string name,
                  double weight = 1.0);

    /** Camera @p camera's model-time clock (stable address). */
    VirtualClock *cameraClock(int camera);

    /**
     * Run every camera's stream to completion on model time. Single
     * use. Rethrows the first camera error after every surviving
     * stream has wound down; callers still finishRun() each pipeline
     * to collect reports.
     */
    void run();

    /** Model seconds the whole run spanned. */
    double modelSeconds() const { return model_end; }
    /** Events processed (the DES throughput denominator). */
    int64_t events() const { return n_events; }
    /** Per-endpoint medium accounting, SharedLink::report() shaped. */
    std::vector<LinkEndpointReport> linkReport() const
    {
        return link.report();
    }

  private:
    /** Event kinds; ties at one instant resolve departures first
     *  (camera -1), then by (camera, kind, seq). */
    enum Kind : int32_t
    {
        kDeparture = 0, ///< SimLink: some transmission finished
        kSource = 1,    ///< camera: run one nextFrame() cycle
        kTx = 2,        ///< camera: start the next paced attempt
    };

    struct Cam
    {
        StreamingPipeline *sp = nullptr;
        int index = -1;
        VirtualClock clock;
        Frame frame;
        StreamingPipeline::TxPlan plan;
        StreamingPipeline::TxOutcome out;
        bool done = false;
    };

    void sourceStep(Cam &cam, double t);
    void countingDelivery(Cam &cam);
    void startAttempt(Cam &cam, double t);
    void resolveAttempt(Cam &cam, double t, Energy energy);
    /** Resolve every departure the link popped; must follow each link
     *  call that settles history (advanceTo, submit). */
    void resolveCompleted();
    void scheduleSource(Cam &cam);
    void scheduleDeparture();
    void finishCamera(Cam &cam);
    void failCamera(Cam &cam, std::exception_ptr error);

    Options opts;
    SimLink link;
    EventScheduler sched;
    std::deque<Cam> cams; ///< deque: stable clock addresses
    std::exception_ptr first_error;
    double model_end = 0.0;
    int64_t n_events = 0;
    bool ran = false;
};

} // namespace sim
} // namespace incam

#endif // INCAM_SIM_ENGINE_HH
