#include "sim/sim_link.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "trace/trace.hh"

namespace incam {
namespace sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Virtual-work slop below which a transmission counts as drained.
 * Interval arithmetic like (0.7 - 0.2) rounds a hair short, so a
 * departure landing exactly on an advance target can come up an
 * epsilon of virtual bytes shy and would otherwise stay in flight at
 * its own departure instant — rescheduling the same event forever.
 * 1e-9 relative is orders of magnitude above accumulated rounding
 * and orders below any real payload residue.
 */
double
vSlop(double f)
{
    return 1e-9 * (std::abs(f) + 1.0);
}
} // namespace

SimLink::SimLink(NetworkLink link, Options options)
    : fixed(std::move(link)), opts(options)
{
}

int
SimLink::addEndpoint(std::string name, double weight)
{
    incam_assert(weight > 0.0, "endpoint '", name,
                 "' needs a positive weight");
    Ep ep;
    ep.name = std::move(name);
    ep.weight = weight;
    ep.gps_w = opts.policy == SharePolicy::Weighted ? weight : 1.0;
    endpoints.push_back(std::move(ep));
    return static_cast<int>(endpoints.size()) - 1;
}

size_t
SimLink::index(int endpoint) const
{
    incam_assert(endpoint >= 0 &&
                     static_cast<size_t>(endpoint) < endpoints.size(),
                 "unknown endpoint ", endpoint);
    return static_cast<size_t>(endpoint);
}

SimLink::Piece
SimLink::pieceAt(double t) const
{
    Piece p;
    if (opts.trace == nullptr) {
        p.rate_bps = fixed.goodput().bytesPerSecond();
        p.ebit_j = fixed.energy_per_bit.j();
        p.until = kInf;
        return p;
    }
    const NetworkTrace &tr = *opts.trace;
    const double cur = std::max(0.0, t);
    const size_t i = tr.segmentIndex(Time::seconds(cur));
    const NetworkLink &l = tr.segment(i).link;
    p.rate_bps = l.goodput().bytesPerSecond();
    p.ebit_j = l.energy_per_bit.j();
    const double span = tr.duration().sec();
    const double seg_end = i + 1 < tr.segmentCount()
                               ? tr.segment(i + 1).start.sec()
                               : span;
    if (tr.periodic()) {
        double local = std::fmod(cur, span);
        if (local < 0.0) {
            local += span;
        }
        p.until = t + (seg_end - local);
    } else if (i + 1 < tr.segmentCount()) {
        p.until = seg_end;
    } else {
        p.until = kInf; // a non-periodic last segment holds forever
    }
    // Floating-point edge: sitting exactly on a boundary must still
    // make forward progress.
    p.until = std::max(p.until, t + 1e-12);
    return p;
}

SimLink::Tier *
SimLink::activeTier()
{
    for (auto &[rank, tier] : tiers) {
        if (!tier.heap.empty()) {
            return &tier;
        }
    }
    return nullptr;
}

const SimLink::Tier *
SimLink::activeTier() const
{
    for (const auto &[rank, tier] : tiers) {
        if (!tier.heap.empty()) {
            return &tier;
        }
    }
    return nullptr;
}

SimLink::Tier &
SimLink::tierOf(const Ep &ep)
{
    const double rank =
        opts.policy == SharePolicy::StrictPriority ? ep.weight : 0.0;
    return tiers[rank];
}

void
SimLink::submit(int endpoint, double bytes, double t)
{
    incam_assert(bytes >= 0.0, "negative transmission size");
    Ep &ep = endpoints[index(endpoint)];
    incam_assert(t >= last_t - 1e-9,
                 "submit at ", t, " precedes settled model time ",
                 last_t, ": events processed out of order");
    // Settle history first: bytes drained before this arrival drained
    // under the old active set (may pop departures at earlier times).
    advanceTo(std::max(t, last_t));
    incam_assert(!ep.active, "endpoint ", endpoint,
                 " has concurrent transmissions (uplinks are serial)");
    Tier &tier = tierOf(ep);
    ep.active = true;
    ep.inflight = bytes;
    ep.submit_t = t;
    ep.s0 = tier.s;
    tier.heap.push(
        HeapItem{tier.v + bytes / ep.gps_w, next_seq++, endpoint});
    tier.weight_sum += ep.gps_w;
    ++ver;
}

void
SimLink::popTop(Tier &tier, double t_dep)
{
    tier.v = tier.heap.top().f;
    const HeapItem item = tier.heap.top();
    tier.heap.pop();
    Ep &ep = endpoints[static_cast<size_t>(item.endpoint)];
    Completion c;
    c.endpoint = item.endpoint;
    c.depart_t = t_dep;
    c.energy = Energy::joules(ep.gps_w * (tier.s - ep.s0) * 8.0);
    ep.active = false;
    tier.weight_sum -= ep.gps_w;
    if (tier.heap.empty()) {
        tier.weight_sum = 0.0; // kill float residue
    }
    ++ep.grants;
    ep.bytes += ep.inflight;
    ep.wait_seconds += t_dep - ep.submit_t;
    ep.inflight = 0.0;
    done.push_back(std::move(c));
    ++ver;
}

void
SimLink::advanceTo(double t)
{
    for (;;) {
        Tier *tier = activeTier();
        // A transmission whose virtual finish is already reached (to
        // within rounding slop) is due *now*: it must pop even when
        // the target equals settled time, or sibling departures
        // sharing one instant would never resolve (the departure
        // event would reschedule forever).
        if (tier != nullptr &&
            tier->heap.top().f - tier->v <=
                vSlop(tier->heap.top().f)) {
            popTop(*tier, last_t);
            continue;
        }
        if (last_t >= t) {
            return;
        }
        const Piece p = pieceAt(last_t);
        const double end = std::min(t, p.until);
        if (tier == nullptr) {
            last_t = end;
            continue;
        }
        incam_assert(p.rate_bps > 0.0,
                     "paced SimLink needs positive goodput: nothing "
                     "can ever drain");
        const double need_v = tier->heap.top().f - tier->v;
        const double dv_cap =
            p.rate_bps * (end - last_t) / tier->weight_sum;
        if (need_v <= dv_cap) {
            // The earliest departure lands inside this piece: settle
            // exactly to it, pop it, and re-evaluate (the active set
            // — possibly the active *tier* — just changed).
            const double t_dep =
                last_t + need_v * tier->weight_sum / p.rate_bps;
            tier->s += p.ebit_j * need_v;
            last_t = t_dep;
            popTop(*tier, t_dep);
            continue;
        }
        tier->v += dv_cap;
        tier->s += p.ebit_j * dv_cap;
        last_t = end;
    }
}

double
SimLink::nextDepartureTime() const
{
    const Tier *tier = activeTier();
    if (tier == nullptr) {
        return kInf;
    }
    double need_v = std::max(0.0, tier->heap.top().f - tier->v);
    double t = last_t;
    for (;;) {
        const Piece p = pieceAt(t);
        incam_assert(p.rate_bps > 0.0,
                     "paced SimLink needs positive goodput: nothing "
                     "can ever drain");
        if (p.until == kInf) {
            return t + need_v * tier->weight_sum / p.rate_bps;
        }
        const double dv_cap =
            p.rate_bps * (p.until - t) / tier->weight_sum;
        if (need_v <= dv_cap) {
            return t + need_v * tier->weight_sum / p.rate_bps;
        }
        need_v -= dv_cap;
        t = p.until;
    }
}

double
SimLink::withdraw(int endpoint)
{
    Ep &ep = endpoints[index(endpoint)];
    Tier &tier = tierOf(ep);
    auto &items = tier.heap.items();
    const auto it = std::find_if(
        items.begin(), items.end(),
        [endpoint](const HeapItem &h) { return h.endpoint == endpoint; });
    incam_assert(it != items.end(), "endpoint ", endpoint,
                 " has no transmission in flight");
    const double left = std::max(0.0, (it->f - tier.v) * ep.gps_w);
    const double drained = std::max(0.0, ep.inflight - left);
    items.erase(it);
    tier.heap.reheap();
    ep.active = false;
    ep.inflight = 0.0;
    tier.weight_sum -= ep.gps_w;
    if (tier.heap.empty()) {
        tier.weight_sum = 0.0; // kill float residue
    }
    ++ver;
    return drained;
}

std::vector<SimLink::Completion>
SimLink::takeCompleted()
{
    std::vector<Completion> out;
    out.swap(done);
    return out;
}

Energy
SimLink::price(double bytes, double trace_time_hint)
{
    incam_assert(bytes >= 0.0, "negative transmission size");
    if (opts.trace == nullptr) {
        return fixed.transferEnergy(DataSize::bytes(bytes));
    }
    // Price at the frame-clock hint when present (bit-deterministic),
    // else at the occupancy timeline, which the grant then advances by
    // transfer time.
    const double t =
        trace_time_hint >= 0.0 ? trace_time_hint : count_free_t;
    const NetworkLink &l = opts.trace->at(Time::seconds(t));
    count_free_t = std::max(count_free_t, t) +
                   l.transferTime(DataSize::bytes(bytes)).sec();
    return l.transferEnergy(DataSize::bytes(bytes));
}

void
SimLink::countGrant(int endpoint, double bytes)
{
    Ep &ep = endpoints[index(endpoint)];
    ++ep.grants;
    ep.bytes += bytes;
}

void
SimLink::release(int endpoint)
{
    endpoints[index(endpoint)].released = true;
}

std::vector<LinkEndpointReport>
SimLink::report() const
{
    std::vector<LinkEndpointReport> out;
    out.reserve(endpoints.size());
    for (const Ep &ep : endpoints) {
        LinkEndpointReport r;
        r.name = ep.name;
        r.weight = ep.weight;
        r.grants = ep.grants;
        r.bytes = DataSize::bytes(ep.bytes);
        r.wait_seconds = ep.wait_seconds;
        r.released = ep.released;
        out.push_back(std::move(r));
    }
    return out;
}

} // namespace sim
} // namespace incam
