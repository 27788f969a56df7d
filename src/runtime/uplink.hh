/**
 * @file
 * The audited uplink-arbitration contract.
 *
 * Two components implement or consume shared-uplink arbitration:
 * fleet/SharedLink, the thread-safe adapter over the one link core
 * (sim::SimLink: weighted fair sharing, optionally over a
 * NetworkTrace), and the pipeline's delivery loop (retry budgets
 * under a DeliveryPolicy). The discrete-event engine drives the same
 * SimLink directly on model time. This header is the single place the
 * contract is stated, and every implementation is audited against the
 * rules below.
 *
 * ## The UplinkArbiter contract
 *
 * **acquire() returns the Energy of the transmission it admitted.**
 * The arbiter owns pricing because only it knows which link state was
 * in force while the bytes drained. The rules:
 *
 *  - *Paced mode* (arbiter constructed with pace=true): acquire()
 *    blocks until the endpoint's fluid share of the link has drained
 *    `bytes`, and prices each drained byte at the per-bit cost of the
 *    link state in force **while it drained** — a transmission
 *    spanning a trace segment boundary is priced piecewise. Bytes
 *    banked ahead of the transmission (the radio's frame buffer,
 *    fleet/shared_link.hh) are priced when it claims them. Wall-clock
 *    arbiters block on a condition variable; a virtual-clock arbiter
 *    advances model time synchronously instead (single-threaded by
 *    the VirtualClock contract).
 *
 *  - *Counting mode* (pace=false): acquire() returns immediately,
 *    pricing the whole transmission at one link state: the trace
 *    state at `trace_time_hint` when a hint >= 0 is given and the
 *    arbiter is trace-driven, else the stationary link (or, under a
 *    trace, the arbiter's occupancy timeline).
 *    This makes counting-mode energies a pure function of (frame id,
 *    bytes, trace) — independent of host timing and of execution
 *    shape, which is what the cross-shape bit-equivalence tests rely
 *    on.
 *
 *  - `trace_time_hint` is the frame's position on the *content/trace
 *    clock* (frame id / trace_fps), not wall time. Paced arbiters
 *    ignore it (real elapsed time decides the segment); counting
 *    arbiters use it as the authoritative trace position. Pass -1.0
 *    when no trace clock exists.
 *
 * **release() is idempotent and mandatory.** Every endpoint that ever
 * called acquire() must call release(endpoint) exactly when its
 * stream ends — *including on error paths*: a fluid arbiter keeps an
 * endpoint in the share between its transmissions (the bank rule), so
 * a crashed camera that never releases takes capacity from its
 * siblings until its bank fills. Calling
 * release() twice, or for an endpoint that never transmitted, is
 * harmless. The runtime guarantees release on every exit path of a
 * run (normal completion, deadline, exception).
 *
 * **Link changes come from the trace, on model time.** Capacity and
 * per-bit price change only at a NetworkTrace's segment boundaries,
 * which the core integrates exactly: bytes drained before a boundary
 * are priced at the old state, bytes after it at the new one, and no
 * drained byte is ever repriced. There is no live reconfiguration
 * call.
 *
 * **Thread safety.** All methods may be called concurrently from any
 * camera thread; implementations serialize internally. The ordering
 * of concurrent acquire() grants at the same instant is unspecified
 * in wall-clock mode (it is deterministic in discrete-event mode,
 * where the event scheduler serializes the world).
 *
 * ## DeliveryPolicy
 *
 * The retry discipline the delivery loop runs *on top of* the
 * arbiter: how many times to re-acquire for a frame the fault plan
 * lost, how long to back off between attempts (exponential from
 * `backoff_base`, jittered deterministically per (camera, frame,
 * attempt)), and how often a degraded camera probes the link. Waits
 * accrue to LossLedger::backoff_seconds in model time whether or not
 * the run paces (counting runs account the wait without sleeping).
 */

#ifndef INCAM_RUNTIME_UPLINK_HH
#define INCAM_RUNTIME_UPLINK_HH

#include "common/units.hh"

namespace incam {

/**
 * Arbitrates a shared uplink among registered endpoints. See the file
 * comment for the full audited contract (pricing, release, link
 * changes, thread-safety).
 */
class UplinkArbiter
{
  public:
    virtual ~UplinkArbiter() = default;

    /**
     * Admit one transmission of @p bytes (payload bytes, double so
     * fractional model sizes survive) for @p endpoint and return its
     * radio Energy. Blocks (or advances model time) in paced mode;
     * returns immediately in counting mode, pricing at
     * @p trace_time_hint when the arbiter is trace-driven and a hint
     * >= 0.0 is supplied.
     */
    virtual Energy acquire(int endpoint, double bytes,
                           double trace_time_hint = -1.0) = 0;

    /**
     * Declare @p endpoint's stream finished so the fluid share frees
     * up. Idempotent; mandatory on every exit path, including errors.
     */
    virtual void release(int endpoint) = 0;
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
