/**
 * @file
 * SimLink — the one shared-uplink core.
 *
 * A fleet's cameras share one medium, and whoever divides it decides
 * each camera's goodput share. SimLink divides it by fluid weighted
 * fair sharing (generalized processor sharing) and models it as data:
 * given the set of in-flight transmissions, when does the next one
 * finish? The discrete-event engine drives it on model time, and
 * SharedLink (runtime/uplink.hh) holds one under a mutex so camera
 * threads can arbitrate through it on a wall or virtual clock.
 *
 * SimLink answers with GPS virtual time. A tier's virtual clock v
 * advances at capacity / (total active weight), so every in-flight
 * transmission finishes at the fixed virtual instant
 *
 *     F = v(submit) + bytes / weight
 *
 * no matter how the active set churns while it drains — the heap of F
 * values is departure order, membership changes never reorder it, and
 * advancing the model is O(log n) per event instead of O(n) per
 * rate change. Radio energy uses the same trick: a tier integrates
 * S = per-bit price dv, and a transmission's joules are
 * weight x (S(depart) - S(submit)) x 8 — exact under mid-flight
 * price changes, O(1) per transmission.
 *
 * Policies: Fair (one tier, unit weights), Weighted (one tier, share
 * weights), StrictPriority (one tier per rank; only the highest tier
 * with traffic drains, ties sharing evenly). A NetworkTrace makes
 * capacity and price piecewise: advances split at segment boundaries,
 * so drains and energies integrate segment-exact.
 *
 * Counting mode (the bit-equivalence gate) never models the medium:
 * price() prices a transmission at one deterministic link state —
 * trace.at(frame-clock hint) under a trace, the stationary link
 * otherwise — and countGrant() keeps the per-endpoint books.
 *
 * Single-threaded by design: no locks, no waiting — time is an
 * argument. Callers serialize access (the engine's event loop, or
 * SharedLink's mutex).
 */

#ifndef INCAM_SIM_SIM_LINK_HH
#define INCAM_SIM_SIM_LINK_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "core/fleet_model.hh"
#include "core/network.hh"
#include "runtime/report.hh"

namespace incam {

class NetworkTrace; // trace/trace.hh

namespace sim {

/** Virtual-time weighted-fair uplink model for the event engine. */
class SimLink
{
  public:
    struct Options
    {
        SharePolicy policy = SharePolicy::Fair;
        /**
         * Time-varying capacity and per-bit price; model time zero is
         * trace time zero. Must outlive the link. Null = stationary.
         */
        const NetworkTrace *trace = nullptr;
    };

    SimLink(NetworkLink link, Options options);

    /** Register a camera uplink; returns its endpoint id. */
    int addEndpoint(std::string name, double weight = 1.0);

    // ----------------------------- paced mode ------------------------

    /**
     * Start draining @p bytes for @p endpoint at model time @p t.
     * One transmission in flight per endpoint. Settles the fluid
     * state to @p t first; @p t must not precede the last settled
     * event (the engine processes events in time order).
     */
    void submit(int endpoint, double bytes, double t);

    /**
     * Model time of the next departure under the current active set
     * and the trace's capacity schedule; +infinity when idle. Pure.
     */
    double nextDepartureTime() const;

    /** Settle drains (and pop departures) up to model time @p t. */
    void advanceTo(double t);

    /**
     * End @p endpoint's in-flight transmission at the settled model
     * time and return the bytes it drained. The withdrawn bytes are
     * not booked as a grant. O(endpoints): for SharedLink, never on
     * the engine's per-event path.
     */
    double withdraw(int endpoint);

    /** One finished transmission. */
    struct Completion
    {
        int endpoint = -1;
        double depart_t = 0.0; ///< model time the last byte drained
        Energy energy;         ///< radio joules, price-integrated
    };

    /** Departures popped by advanceTo() since the last call. */
    std::vector<Completion> takeCompleted();

    /**
     * Monotone stamp, bumped whenever the departure schedule may have
     * changed (submit, departure, release). The engine tags scheduled
     * departure events with it and drops stale ones.
     */
    uint64_t version() const { return ver; }

    // ---------------------------- counting mode ----------------------

    /**
     * Deterministic price of @p bytes at frame-clock position
     * @p trace_time_hint: the trace segment in force there (falling
     * back to the occupancy timeline when the hint is negative), or
     * the stationary link.
     */
    Energy price(double bytes, double trace_time_hint);

    /** Account a counting-mode grant for @p endpoint's books. */
    void countGrant(int endpoint, double bytes);

    // ------------------------------ common ---------------------------

    /** Mark the endpoint's stream complete (idempotent). */
    void release(int endpoint);

    /** Per-endpoint accounting, shaped like SharedLink::report(). */
    std::vector<LinkEndpointReport> report() const;

  private:
    /** Capacity and price in force at model time @p t, and the model
     *  time they hold until (+inf when stationary). */
    struct Piece
    {
        double rate_bps = 0.0; ///< goodput, bytes per model second
        double ebit_j = 0.0;   ///< radio joules per bit
        double until = 0.0;
    };
    Piece pieceAt(double t) const;

    struct HeapItem
    {
        double f = 0.0;    ///< virtual finish instant
        uint64_t seq = 0;  ///< submit order: deterministic F ties
        int endpoint = -1;
    };
    struct HeapLater
    {
        bool operator()(const HeapItem &a, const HeapItem &b) const
        {
            if (a.f != b.f) {
                return a.f > b.f;
            }
            return a.seq > b.seq;
        }
    };

    /** Departure heap whose entries withdraw() can reach; the
     *  per-event path uses only the queue interface. */
    struct Heap
        : std::priority_queue<HeapItem, std::vector<HeapItem>, HeapLater>
    {
        std::vector<HeapItem> &items() { return c; }
        void reheap() { std::make_heap(c.begin(), c.end(), comp); }
    };

    /** One GPS sharing class: the whole link (Fair/Weighted) or one
     *  priority rank (StrictPriority). */
    struct Tier
    {
        double v = 0.0;          ///< virtual time, in bytes/weight
        double s = 0.0;          ///< integral of ebit_j dv
        double weight_sum = 0.0; ///< total weight in flight
        Heap heap;
    };

    struct Ep
    {
        std::string name;
        double weight = 1.0; ///< share weight / priority rank
        double gps_w = 1.0;  ///< drain weight inside its tier
        bool active = false;
        double inflight = 0.0; ///< bytes of the in-flight transmission
        double submit_t = 0.0;
        double s0 = 0.0; ///< tier price integral at submit
        int64_t grants = 0;
        double bytes = 0.0;
        double wait_seconds = 0.0;
        bool released = false;
    };

    /** @p endpoint's index in `endpoints`; panics on an unknown id. */
    size_t index(int endpoint) const;
    /** The tier currently draining: the only tier, or the highest
     *  rank with traffic in flight. Null when the medium is idle. */
    Tier *activeTier();
    const Tier *activeTier() const;
    Tier &tierOf(const Ep &ep);
    /** Complete @p tier's earliest transmission at @p t_dep. */
    void popTop(Tier &tier, double t_dep);

    NetworkLink fixed;
    Options opts;
    std::vector<Ep> endpoints;
    /** Rank -> tier, highest first; Fair/Weighted use the single key
     *  0. Node stability lets Ep flows hold tier state across churn. */
    std::map<double, Tier, std::greater<double>> tiers;
    std::vector<Completion> done;
    double last_t = 0.0;  ///< model time the fluid state is settled to
    double count_free_t = 0.0; ///< counting-mode occupancy timeline
    uint64_t next_seq = 0;
    uint64_t ver = 0;
};

} // namespace sim
} // namespace incam

#endif // INCAM_SIM_SIM_LINK_HH
