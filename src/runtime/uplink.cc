#include "runtime/uplink.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "sim/clock.hh"

namespace incam {

SharedLink::SharedLink(NetworkLink link, Options options)
    : opts(options), clk(options.clock != nullptr
                             ? options.clock
                             : &sim::WallClock::shared()),
      core(link, {options.policy, options.trace})
{
    incam_assert(opts.time_scale > 0.0, "time_scale must be positive");
    incam_assert(!opts.pace || opts.trace != nullptr ||
                     link.goodput().bytesPerSecond() > 0.0,
                 "a paced shared link needs positive goodput");
}

int
SharedLink::addEndpoint(std::string name, double weight)
{
    MutexLock lk(mu);
    endpoints.emplace_back();
    return core.addEndpoint(std::move(name), weight);
}

void
SharedLink::start()
{
    MutexLock lk(mu);
    if (!started) {
        started = true;
        epoch = clk->now();
    }
}

Time
SharedLink::traceTime() const
{
    MutexLock lk(mu);
    return started ? Time::seconds(modelTime(clk->now())) : Time{};
}

void
SharedLink::settleLocked(double t)
{
    for (double next = core.nextDepartureTime(); next <= t;
         next = core.nextDepartureTime()) {
        core.advanceTo(next);
        resolveLocked();
    }
    core.advanceTo(t);
    resolveLocked();
    model_t = std::max(model_t, t);
}

void
SharedLink::resolveLocked()
{
    bool any = false;
    for (auto done = core.takeCompleted(); !done.empty();
         done = core.takeCompleted()) {
        any = true;
        for (const sim::SimLink::Completion &c : done) {
            Endpoint &ep = endpoints[static_cast<size_t>(c.endpoint)];
            if (ep.flow == Flow::Frame) {
                ep.frame_energy = c.energy;
                bankLocked(c.endpoint, c.depart_t);
            } else {
                ep.flow = Flow::None; // bank full: leave the share
                ep.bank = ep.burst;
            }
        }
    }
    if (any) {
        cv.notify_all();
    }
}

void
SharedLink::bankLocked(int endpoint, double t)
{
    Endpoint &ep = endpoints[static_cast<size_t>(endpoint)];
    ep.flow = Flow::None;
    const double room = ep.burst - ep.bank;
    if (room > 0.0) {
        ep.flow = Flow::Bank;
        core.submit(endpoint, room, t);
    }
}

Energy
SharedLink::acquire(int endpoint, double bytes, double trace_time_hint)
{
    incam_assert(bytes >= 0.0, "negative transmission size");
    const double t0 = opts.pace ? clk->now() : 0.0; // counting never waits
    MutexLock lk(mu);
    incam_assert(endpoint >= 0 &&
                     static_cast<size_t>(endpoint) < endpoints.size(),
                 "unknown endpoint ", endpoint);
    Endpoint &ep = endpoints[static_cast<size_t>(endpoint)];
    ++ep.grants;
    ep.bytes += bytes;
    if (!opts.pace) {
        return core.price(bytes, trace_time_hint);
    }

    incam_assert(ep.flow != Flow::Frame, "endpoint ", endpoint,
                 " has concurrent acquires (uplinks are serial)");
    if (!started) {
        started = true;
        epoch = t0;
    }
    settleLocked(modelTime(clk->now())); // post-lock: t0 may be stale
    const bool withdrew = ep.flow == Flow::Bank;
    if (withdrew) {
        ep.bank += core.withdraw(endpoint);
        ep.flow = Flow::None;
    }
    ep.burst = std::max(1.0, 2.0 * bytes);
    const double claimed = std::min(bytes, ep.bank);
    ep.bank = std::min(ep.burst, ep.bank - claimed);
    // Banked bytes are priced now, when this frame claims them.
    Energy energy = core.price(claimed, model_t);
    if (claimed == bytes) {
        bankLocked(endpoint, model_t); // through at once: keep the share
        resolveLocked();
        if (withdrew) {
            // The new bank may fill sooner than the withdrawn one, or
            // be empty: the others' departures can come forward, and
            // no waiter is due to wake for it.
            cv.notify_all();
        }
    } else {
        ep.flow = Flow::Frame;
        core.submit(endpoint, bytes - claimed, model_t);
        resolveLocked();
        while (ep.flow == Flow::Frame) {
            // Wake at the next departure in the active tier, never
            // later than this frame's own: any departure (a bank that
            // fills, say) speeds the survivors, and no other thread
            // need be awake to settle it.
            const double wake_t = core.nextDepartureTime();
            const double wake = epoch + wake_t * opts.time_scale;
            if (clk->virtualTime()) {
                clk->sleepUntil(wake);
            } else {
                // An arrival only delays the departures already
                // scheduled, so it needs no notify.
                const double wait_s = wake - clk->now();
                if (wait_s > 0.0) {
                    cv.wait_for(lk.raw(),
                                std::chrono::duration<double>(wait_s));
                }
            }
            // Once the wake instant is reached, settle at least to it:
            // the clock round trip may round a hair short of wake_t.
            const double now = clk->now();
            settleLocked(now >= wake ? std::max(wake_t, modelTime(now))
                                     : modelTime(now));
        }
        energy += ep.frame_energy;
    }
    ep.wait_seconds += clk->now() - t0;
    return energy;
}

void
SharedLink::release(int endpoint)
{
    MutexLock lk(mu);
    incam_assert(endpoint >= 0 &&
                     static_cast<size_t>(endpoint) < endpoints.size(),
                 "unknown endpoint ", endpoint);
    Endpoint &ep = endpoints[static_cast<size_t>(endpoint)];
    if (ep.flow == Flow::Bank) {
        settleLocked(modelTime(clk->now()));
        if (ep.flow == Flow::Bank) { // it may have filled meanwhile
            ep.bank += core.withdraw(endpoint);
            ep.flow = Flow::None;
        }
        cv.notify_all(); // survivors' shares grow
    }
    core.release(endpoint);
}

std::vector<LinkEndpointReport>
SharedLink::report() const
{
    MutexLock lk(mu);
    std::vector<LinkEndpointReport> out = core.report();
    for (size_t i = 0; i < out.size(); ++i) {
        out[i].grants = endpoints[i].grants;
        out[i].bytes = DataSize::bytes(endpoints[i].bytes);
        out[i].wait_seconds = endpoints[i].wait_seconds;
    }
    return out;
}

} // namespace incam
