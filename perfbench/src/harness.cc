#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>

#include "sim/clock.hh"

namespace perfbench {

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int64_t
fixedRuns(double seconds, double nominal_run_s, int64_t min_runs)
{
    return std::max<int64_t>(min_runs, std::llround(seconds / nominal_run_s));
}

uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 finalizer over (seed, stream): adjacent seeds and
    // streams decorrelate fully.
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        throw std::runtime_error("median of an empty sample");
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
nearestRank(std::vector<double> v, double q)
{
    if (v.empty()) {
        throw std::runtime_error("percentile of an empty sample");
    }
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        throw std::runtime_error("metric " + name + " is not finite");
    }
    metrics.push_back(Metric{name, value, unit});
}

void
Result::check(bool ok, const std::string &what)
{
    std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    correct = correct && ok;
}

void
Result::print() const
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

TapExecutor::TapExecutor(std::unique_ptr<incam::BlockExecutor> wrapped,
                         bool timed_calls, std::vector<TapRecord> *log)
    : inner(std::move(wrapped)), timed(timed_calls), records(log)
{
}

bool
TapExecutor::process(incam::Frame &frame)
{
    incam::sim::Clock &clock = incam::sim::WallClock::shared();
    const double t0 = timed ? clock.now() : 0.0;
    const bool pass = inner->process(frame);
    const double t1 = clock.now();
    if (timed) {
        busy += t1 - t0;
    }
    records->push_back(TapRecord{frame.id, pass, frame.score,
                                 t1 - frame.emit_s});
    return pass;
}

} // namespace perfbench
