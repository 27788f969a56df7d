#include "obs/metrics.hh"

#include "common/logging.hh"

namespace incam {
namespace obs {

MetricsRegistry::Entry &
MetricsRegistry::findOrCreate(const std::string &name,
                              const std::string &label, MetricKind kind)
{
    MutexLock lk(mu);
    const auto [it, created] = entries.try_emplace({name, label});
    Entry &e = it->second;
    if (created) {
        e.kind = kind;
    }
    incam_assert(e.kind == kind, "metric '", name, "'/'", label,
                 "' registered twice with different kinds");
    return e;
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &label)
{
    return findOrCreate(name, label, MetricKind::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &label)
{
    return findOrCreate(name, label, MetricKind::Gauge).gauge;
}

LogHistogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &label)
{
    return findOrCreate(name, label, MetricKind::Histogram).hist;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    MutexLock lk(mu);
    snap.values.reserve(entries.size());
    for (const auto &[key, e] : entries) {
        MetricValue v;
        v.name = key.first;
        v.label = key.second;
        v.kind = e.kind;
        switch (e.kind) {
          case MetricKind::Counter:
            v.value = e.counter.value();
            break;
          case MetricKind::Gauge:
            v.value = e.gauge.value();
            break;
          case MetricKind::Histogram:
            v.count = e.hist.count();
            v.value = v.count > 0
                          ? e.hist.sum() / static_cast<double>(v.count)
                          : 0.0;
            v.p50 = e.hist.percentile(0.50);
            v.p95 = e.hist.percentile(0.95);
            v.p99 = e.hist.percentile(0.99);
            break;
        }
        snap.values.push_back(std::move(v));
    }
    return snap;
}

MetricsSnapshot
MetricsSnapshot::diff(const MetricsSnapshot &earlier) const
{
    MetricsSnapshot out = *this;
    for (MetricValue &v : out.values) {
        if (v.kind != MetricKind::Counter) {
            continue;
        }
        const MetricValue *prev = earlier.find(v.name, v.label);
        if (prev != nullptr) {
            v.value -= prev->value;
        }
    }
    return out;
}

const MetricValue *
MetricsSnapshot::find(const std::string &name,
                      const std::string &label) const
{
    for (const MetricValue &v : values) {
        if (v.name == name && v.label == label) {
            return &v;
        }
    }
    return nullptr;
}

} // namespace obs
} // namespace incam
