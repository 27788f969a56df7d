/**
 * @file
 * The uplink: SharedLink and its audited contract.
 *
 * Every run that delivers its own frames transmits through a
 * SharedLink, the thread-safe adapter over the one link core
 * (sim::SimLink: weighted fair sharing, optionally over a
 * NetworkTrace). A fleet shares one among its cameras; a solo run
 * builds its own one-endpoint link. The pipeline's delivery loop runs
 * retry budgets on top of it, under a DeliveryPolicy. The
 * discrete-event engine drives the same SimLink directly on model
 * time. This header is the single place the contract is stated, and
 * the implementation (uplink.cc) is audited against the rules below.
 *
 * ## The SharedLink contract
 *
 * **acquire() returns the Energy of the transmission it admitted.**
 * The link owns pricing because only it knows which link state was in
 * force while the bytes drained. The rules:
 *
 *  - *Paced mode* (link constructed with pace = true): acquire()
 *    converts clock time to model time, (now - start) / time_scale,
 *    blocks until the endpoint's fluid share of the link has drained
 *    `bytes`, and prices each drained byte at the per-bit cost of the
 *    link state in force **while it drained** — a transmission
 *    spanning a trace segment boundary is priced piecewise. Bytes
 *    banked ahead of the transmission (the bank rule below) are
 *    priced when it claims them. Under a WallClock acquire() blocks
 *    on a condition variable; under a VirtualClock it advances model
 *    time synchronously instead (single-threaded by the VirtualClock
 *    contract). A paced link needs positive goodput, or a trace: zero
 *    or NaN goodput panics at construction.
 *
 *  - *Counting mode* (pace = false): acquire() returns immediately,
 *    pricing the whole transmission at one link state: the trace
 *    state at `trace_time_hint` when a hint >= 0 is given and the
 *    link is trace-driven, else the stationary link (or, under a
 *    trace, the link's occupancy timeline).
 *    This makes counting-mode energies a pure function of (frame id,
 *    bytes, trace) — independent of host timing and of execution
 *    shape, which is what the cross-shape bit-equivalence tests rely
 *    on.
 *
 *  - `trace_time_hint` is the frame's position on the *content/trace
 *    clock* (frame id / trace_fps), not wall time. Paced links ignore
 *    it (real elapsed time decides the segment); counting links use
 *    it as the authoritative trace position. Pass -1.0 when no trace
 *    clock exists.
 *
 * **The bank rule absorbs host sleep overshoot.** An endpoint keeps
 * its GPS share from the instant its bytes are through until its next
 * acquire, bounded by two of its latest frame (the radio's frame
 * buffer), and what drains meanwhile is banked against the next
 * frame: the radio drains its frame buffer while the camera readies
 * the next frame. A camera that oversleeps thus never idles its
 * share, and jitter never accumulates into rate error.
 *
 * **release() is idempotent and mandatory.** Every endpoint that ever
 * called acquire() must call release(endpoint) exactly when its
 * stream ends — *including on error paths*: the bank rule keeps an
 * endpoint in the share between its transmissions, so a crashed
 * camera that never releases takes capacity from its siblings until
 * its bank fills. Released, its bank stops draining and its share
 * flows to the survivors immediately. Calling release() twice, or for
 * an endpoint that never transmitted, is harmless. The runtime
 * guarantees release on every exit path of a run (normal completion,
 * deadline, exception).
 *
 * **Link changes come from the trace, on model time.** Capacity and
 * per-bit price change only at a NetworkTrace's segment boundaries,
 * which the core integrates exactly: bytes drained before a boundary
 * are priced at the old state, bytes after it at the new one, and no
 * drained byte is ever repriced. There is no live reconfiguration
 * call.
 *
 * **Thread safety.** All methods may be called concurrently from any
 * camera thread; the link serializes internally. The ordering of
 * concurrent acquire() grants at the same instant is unspecified in
 * wall-clock mode (it is deterministic in discrete-event mode, where
 * the event scheduler serializes the world).
 *
 * ## DeliveryPolicy
 *
 * The retry discipline the delivery loop runs *on top of* the link:
 * how many times to re-acquire for a frame the fault plan lost, how
 * long to back off between attempts (exponential from
 * `backoff_base`, jittered deterministically per (camera, frame,
 * attempt)), and how often a degraded camera probes the link. Waits
 * accrue to LossLedger::backoff_seconds in model time whether or not
 * the run paces (counting runs account the wait without sleeping).
 */

#ifndef INCAM_RUNTIME_UPLINK_HH
#define INCAM_RUNTIME_UPLINK_HH

#include <condition_variable>
#include <deque>
#include <string>
#include <vector>

#include "common/thread_safety.hh"
#include "common/units.hh"
#include "core/fleet_model.hh"
#include "core/network.hh"
#include "runtime/report.hh"
#include "sim/sim_link.hh"

namespace incam {

namespace sim {
class Clock; // sim/clock.hh
}

/**
 * Thread-safe weighted-fair uplink over one sim::SimLink. See the
 * file comment for the full audited contract (pricing, the bank rule,
 * release, link changes, thread-safety).
 */
class SharedLink
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
     * Admit one transmission of @p bytes (payload bytes, double so
     * fractional model sizes survive) for @p endpoint and return its
     * radio Energy. Blocks (or advances model time) in paced mode;
     * returns immediately in counting mode, pricing at
     * @p trace_time_hint when the link is trace-driven and a hint
     * >= 0.0 is supplied.
     */
    Energy acquire(int endpoint, double bytes,
                   double trace_time_hint = -1.0);

    /**
     * Declare @p endpoint's stream finished so the fluid share frees
     * up. Idempotent; mandatory on every exit path, including errors.
     */
    void release(int endpoint);

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

/**
 * Uplink delivery semantics under transmission loss: how many times a
 * frame is retransmitted, and what each detected loss costs in model
 * time, before the frame is shed (LossLedger::dropped_link). Every
 * attempt — first or retry — pays full bytes, airtime and radio
 * energy; the loss ledger tracks the retry share separately.
 */
struct DeliveryPolicy
{
    /** Retransmissions after the first attempt; 0 = send once. */
    int max_retries = 0;

    /** Model seconds to detect a lost attempt (ACK timeout). */
    double ack_timeout = 0.0;

    /** Model seconds of backoff before retry k, doubling per retry:
     *  backoff_base * 2^(k-1). 0 retries immediately after timeout. */
    double backoff_base = 0.0;

    /** +-fraction of jitter on each backoff step, hash-drawn from the
     *  fault plan so the wait sequence stays deterministic. */
    double backoff_jitter = 0.0;

    /**
     * Degraded (local-delivery) epochs still probe the link: every
     * probe_every-th frame attempts one real transmission. A probe
     * that succeeds is delivered remotely and feeds the telemetry
     * that lets the adaptive controller see the link heal; a probe
     * that fails falls back to local delivery. 0 never probes.
     */
    int64_t probe_every = 8;
};

} // namespace incam

#endif // INCAM_RUNTIME_UPLINK_HH
