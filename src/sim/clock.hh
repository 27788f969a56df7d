/**
 * @file
 * The time source abstraction under everything that paces or waits.
 *
 * Every timed component of the runtime — TokenBucket pacing,
 * SharedLink's paced waits, the deadline check, backoff sleeps,
 * latency stamps — reads *some* clock and occasionally sleeps against
 * it. Historically that clock was
 * hard-wired to std::chrono::steady_clock, which welds the runtime to
 * wall time: a 100k-camera fleet cannot be executed because 100k
 * cameras cannot sleep on a core count's worth of threads.
 *
 * Clock breaks the weld. Components take a `Clock *` and call now() /
 * sleepUntil() / sleepFor(); the implementation decides what a second
 * is:
 *
 *  - WallClock is the status quo: now() is steady_clock seconds since
 *    a fixed epoch and sleeps really sleep. All existing execution
 *    shapes (threaded stages, inline, thread-per-camera fleets) run on
 *    it unchanged, and it is the default everywhere.
 *
 *  - VirtualClock is *model time*: now() is a settable cursor and a
 *    sleep simply advances it. A pipeline run against a VirtualClock
 *    executes its entire timed behaviour — pacer debts, retry
 *    backoffs, link drains, latency percentiles — in model seconds at
 *    memory speed, which is what the discrete-event fleet engine
 *    (sim/engine.hh) builds on: one VirtualClock per camera, advanced
 *    by the event scheduler instead of by the host's sleep syscalls.
 *
 * All times are double seconds since the clock's epoch. A VirtualClock
 * is deliberately NOT thread-safe: virtual time belongs to exactly one
 * driving thread (the event loop), and handing it to concurrent stage
 * threads is a programming error the runtime asserts against.
 *
 * This module is the repo's *determinism boundary*: sim/clock.{hh,cc}
 * are the only files allowed to name std::chrono::steady_clock /
 * system_clock or to sleep on the host directly. Everything else must
 * go through a Clock, and tools/lint_invariants.py (run in CI) fails
 * the build on any raw wall-clock read outside this boundary — see
 * docs/static-analysis.md.
 */

#ifndef INCAM_SIM_CLOCK_HH
#define INCAM_SIM_CLOCK_HH

#include <chrono>

namespace incam::sim {

/** Seconds-based time source; wall or virtual (model time). */
class Clock
{
  public:
    virtual ~Clock() = default;

    /** Seconds since this clock's epoch. */
    virtual double now() = 0;

    /** Block (or advance) until now() >= t. Past deadlines return
     *  immediately; they never move time backwards. */
    virtual void sleepUntil(double t) = 0;

    /** Convenience: sleepUntil(now() + dt); dt <= 0 is a no-op. */
    void sleepFor(double dt);

    /**
     * True when this clock runs on model time (sleeping advances the
     * cursor instead of the host). Components with thread-based
     * waiting (condition variables, queues) use this to assert they
     * were not handed a clock they cannot honour, or to switch to a
     * synchronous single-threaded path.
     */
    virtual bool virtualTime() const = 0;
};

/** steady_clock seconds since construction; sleeps really sleep. */
class WallClock final : public Clock
{
  public:
    WallClock();

    double now() override;
    void sleepUntil(double t) override;
    bool virtualTime() const override { return false; }

    /**
     * The process-wide default instance every component falls back to
     * when no clock is injected — one shared epoch, so timestamps
     * taken by different components are directly comparable.
     */
    static WallClock &shared();

  private:
    std::chrono::steady_clock::time_point epoch;
};

/**
 * Model time: a settable cursor. sleepUntil(t) = advance the cursor to
 * t. Single-threaded by contract (see the file comment).
 */
class VirtualClock final : public Clock
{
  public:
    explicit VirtualClock(double start = 0.0) : t(start) {}

    double now() override { return t; }

    void
    sleepUntil(double when) override
    {
        if (when > t) {
            t = when;
        }
    }

    bool virtualTime() const override { return true; }

    /** The event loop's hand on the cursor (monotonic, like a sleep). */
    void advanceTo(double when) { sleepUntil(when); }

  private:
    double t;
};

} // namespace incam::sim

#endif // INCAM_SIM_CLOCK_HH
