/**
 * @file
 * Token-bucket pacing for modeled service rates.
 *
 * The runtime executes *modeled* hardware (an ASIC motion block) on a
 * host CPU, so something must make a stage take the time the model
 * says it takes. A TokenBucket accrues credit at the
 * modeled rate up to a small burst bound; acquiring more credit than is
 * banked sleeps for the deficit. Credit is allowed to go negative
 * (debt), which is what makes the long-run rate *exact* under sleep
 * jitter: an oversleep banks the surplus (bounded by the burst), an
 * undersleep leaves debt the next acquire pays off, so error never
 * accumulates — the property the measured-vs-model comparison depends
 * on. It paces the source (rate = source FPS) and the compute stages
 * (rate = 1/service time, whole-frame tokens); the uplink drains
 * through a SharedLink (runtime/uplink.hh) instead.
 *
 * The bucket reads time from an injected sim::Clock. On the default
 * WallClock it behaves exactly as the historical steady_clock bucket
 * did; on a VirtualClock its "sleep" advances model time, so the debt
 * mechanism turns into *exact* arithmetic: every acquire lands
 * precisely on the modeled schedule with zero jitter, which is what
 * lets a discrete-event run pace thousands of cameras at memory
 * speed.
 *
 * Determinism boundary: nothing in this header touches std::chrono
 * clocks directly — all wall time enters through the injected Clock,
 * and tools/lint_invariants.py keeps it that way (raw steady_clock /
 * system_clock / sleep_for reads are confined to sim/clock.*). That is
 * what guarantees a pipeline rebuilt on a VirtualClock has *zero*
 * hidden wall-time dependencies left in its pacing.
 */

#ifndef INCAM_RUNTIME_PACER_HH
#define INCAM_RUNTIME_PACER_HH

namespace incam {

namespace sim {
class Clock; // sim/clock.hh
}

/** Sleep-based token bucket; rate in tokens/sec of an injected Clock. */
class TokenBucket
{
  public:
    /**
     * @p rate_per_sec tokens accrue per second, banked up to
     * @p burst_tokens. A non-positive rate disables pacing entirely.
     * @p clock is the time source; null uses the process WallClock.
     */
    TokenBucket(double rate_per_sec, double burst_tokens,
                sim::Clock *clock = nullptr);

    /**
     * Consume @p tokens, sleeping until the bucket can cover them.
     * Requests larger than the burst are honoured by going into debt.
     */
    void acquire(double tokens);

    /**
     * Change the accrual rate mid-stream (an adaptive cut switch moves
     * a stage to a different modeled service rate). Semantics:
     *
     *  - credit banked (or debt owed) so far is settled at the *old*
     *    rate up to the moment of the change, then carries over — a
     *    stage that owes time keeps owing it, so a rate change can
     *    never be used to launder accumulated debt;
     *  - the bank stays bounded by the same burst, so raising the rate
     *    grants no free burst beyond what was already banked;
     *  - the constructor's degenerate-rate clamps (NaN, +-inf,
     *    denormal, <= 0 => pacing disabled) apply identically.
     *
     * Switching an unpaced bucket to a positive rate starts pacing
     * from this instant with an empty bank.
     */
    void setRate(double rate_per_sec);

    double rate() const { return tokens_per_sec; }

  private:
    void refill(double now);

    sim::Clock *clk; ///< non-owning time source
    double tokens_per_sec;
    double burst;
    double credit = 0.0;
    bool started = false;
    double last = 0.0; ///< clock seconds of the last refill
};

} // namespace incam

#endif // INCAM_RUNTIME_PACER_HH
