/**
 * @file
 * SharedLink — the wall-clock adapter over the one link core.
 *
 * A fleet of cameras shares one physical uplink (the WISPCam swarm's
 * RF reader, the VR rig's 25 GbE trunk). sim::SimLink models that
 * medium: weighted fair sharing under GPS, a NetworkTrace's piecewise
 * capacity and per-bit price, and counting-mode pricing. The
 * discrete-event engine drives it on model time; SharedLink holds one
 * under its mutex so camera threads can arbitrate through it on a
 * sim::Clock.
 *
 *  - *Counting* (pace = false): acquire() never waits. SimLink::price
 *    prices the bytes at the frame-clock hint (or the occupancy
 *    timeline) under a trace, at the stationary link otherwise — the
 *    engine's pricing, so counting ledgers and energies are
 *    bit-identical across execution shapes.
 *
 *  - *Paced*: acquire() converts clock time to model time,
 *    (now - start) / time_scale, submits the bytes and waits until the
 *    core reports them drained — on a condition variable under a
 *    WallClock, by sleeping a VirtualClock otherwise (single-threaded
 *    by the clock's contract). Drained bytes are priced by the link
 *    states in force while they drained.
 *
 * The bank rule absorbs host sleep overshoot. An endpoint keeps its
 * GPS share from the instant its bytes are through until its next
 * acquire, bounded by two of its latest frame (the radio's frame
 * buffer), and what drains meanwhile is banked against the next frame:
 * the radio drains its frame buffer while the camera readies the next
 * frame. Banked bytes are priced at claim time. A camera that
 * oversleeps thus never idles its share, and jitter never accumulates
 * into rate error.
 *
 * An endpoint that finishes (or dies) release()s: its bank stops
 * draining and its share flows to the survivors immediately.
 */

#ifndef INCAM_FLEET_SHARED_LINK_HH
#define INCAM_FLEET_SHARED_LINK_HH

#include <condition_variable>
#include <deque>
#include <string>
#include <vector>

#include "common/thread_safety.hh"
#include "core/fleet_model.hh"
#include "core/network.hh"
#include "runtime/report.hh"
#include "runtime/uplink.hh"
#include "sim/sim_link.hh"

namespace incam {

namespace sim {
class Clock; // sim/clock.hh
}

/** Thread-safe weighted-fair arbiter over one sim::SimLink. */
class SharedLink : public UplinkArbiter
{
  public:
    struct Options
    {
        SharePolicy policy = SharePolicy::Fair;

        /**
         * Time-varying capacity and per-bit price; trace time zero is
         * start(). Must outlive the link. Null = the stationary link
         * given to the constructor.
         */
        const NetworkTrace *trace = nullptr;

        /** Stretch transmission times like RuntimeOptions::time_scale:
         *  one model second takes time_scale clock seconds. */
        double time_scale = 1.0;

        /**
         * Pace transmissions at the link's goodput. Off, acquire()
         * returns immediately but still accounts traffic — the
         * counting mode energy validation runs use.
         */
        bool pace = true;

        /** Time source; null uses the process WallClock. */
        sim::Clock *clock = nullptr;
    };

    SharedLink(NetworkLink link, Options options);

    /**
     * Register a camera uplink; the returned id names it in acquire().
     * Weight is the share weight (Weighted) or priority rank
     * (StrictPriority); Fair ignores it. Register every endpoint
     * before traffic starts.
     */
    int addEndpoint(std::string name, double weight = 1.0);

    /**
     * Pin model time zero to this clock instant. Implicit on the first
     * paced acquire; call it just before a run starts so camera
     * start-up cost doesn't skew a trace's schedule.
     */
    void start();

    /** The paced trace clock: model seconds since start(), 0 before. */
    Time traceTime() const;

    /**
     * Admit @p bytes of @p endpoint's traffic and return their radio
     * energy. Paced, blocks until the bytes have drained.
     */
    Energy acquire(int endpoint, double bytes,
                   double trace_time_hint = -1.0) override;

    /** Mark the endpoint's stream complete (idempotent). */
    void release(int endpoint) override;

    /** Per-endpoint accounting snapshot (thread-safe). */
    std::vector<LinkEndpointReport> report() const;

  private:
    /** What an endpoint has in flight on the core. */
    enum class Flow
    {
        None,
        Frame, ///< acquire() waits for these bytes
        Bank,  ///< bytes are through; draining into the bank
    };

    struct Endpoint
    {
        Flow flow = Flow::None;
        double bank = 0.0;  ///< drained bytes no frame has claimed
        double burst = 0.0; ///< bank bound: two of the latest frame
        Energy frame_energy; ///< the Frame flow's, set at departure
        int64_t grants = 0;
        double bytes = 0.0;
        double wait_seconds = 0.0;
    };

    double modelTime(double clock_t) const INCAM_REQUIRES(mu)
    {
        return (clock_t - epoch) / opts.time_scale;
    }

    /** Advance the core to model time @p t, one departure at a time,
     *  so a finished frame starts banking at its departure instant. */
    void settleLocked(double t) INCAM_REQUIRES(mu);

    /** Book every departure the core popped (the engine rule: after
     *  each call that settles history). */
    void resolveLocked() INCAM_REQUIRES(mu);

    /** Keep @p endpoint's share from model time @p t, banking up to
     *  its burst. */
    void bankLocked(int endpoint, double t) INCAM_REQUIRES(mu);

    const Options opts;
    sim::Clock *const clk; ///< non-owning time source
    mutable AnnotatedMutex mu;
    sim::SimLink core INCAM_GUARDED_BY(mu);
    /** Deque: Endpoint addresses stay stable across addEndpoint, so a
     *  waiter blocked in acquire() never holds a dangling reference. */
    std::deque<Endpoint> endpoints INCAM_GUARDED_BY(mu);
    std::condition_variable cv;
    bool started INCAM_GUARDED_BY(mu) = false;
    /** Clock instant of model time zero. */
    double epoch INCAM_GUARDED_BY(mu) = 0.0;
    /** Model time the core is settled to. */
    double model_t INCAM_GUARDED_BY(mu) = 0.0;
};

} // namespace incam

#endif // INCAM_FLEET_SHARED_LINK_HH
