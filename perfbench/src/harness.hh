/**
 * @file
 * Shared plumbing of the perfbench harness: host timers, order
 * statistics, the result a workload reports, and the executor
 * decorator the workloads wrap around the runtime's real executors.
 *
 * Every time here is host time (std::chrono::steady_clock or the
 * process CPU clock). Model time never leaves the library's reports.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/executor.hh"

namespace perfbench {

/** Command-line selection of one workload invocation. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0; ///< timed-phase length (untraced runs)
    bool trace = false;    ///< per-layer (traced) run instead of e2e
};

/** Host seconds on the steady clock (arbitrary epoch). */
double hostNow();

/** CPU seconds consumed by this process, all threads. */
double cpuNow();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/**
 * Fixed-size runs an untraced invocation makes for @p seconds of timed
 * work when one run costs @p nominal_run_s host seconds (its typical
 * cost on a 4-vCPU Xeon VM), and at least @p min_runs. The count
 * depends on the arguments alone, so every invocation with the same
 * arguments does the same work and reports the same attempted and
 * failed operations; on a faster or slower host the timed phase is
 * shorter or longer instead.
 */
int64_t fixedRuns(double seconds, double nominal_run_s, int64_t min_runs);

/** Independent seed for input stream @p stream of workload seed @p seed. */
uint64_t subSeed(uint64_t seed, uint64_t stream);

/** Median of @p v (mean of the middle pair for even sizes). */
double median(std::vector<double> v);

/** Nearest-rank percentile @p q in (0, 1] of @p v. */
double nearestRank(std::vector<double> v, double q);

/**
 * What one invocation reports: the correctness verdict, operations
 * attempted and failed, and named metrics. print() writes the result
 * as the last line of standard output, the JSON shape run.py reads.
 */
class Result
{
  public:
    /** Record metric @p name; non-finite values are a harness bug. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Fail the run's correctness verdict when @p ok is false. */
    void check(bool ok, const std::string &what);

    void print() const;

    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
};

/** One executor call as the decorator saw it. */
struct TapRecord
{
    int64_t id = 0;
    bool pass = false;
    double score = 0.0; ///< frame.score after the call
    /** Run-clock seconds from the frame's source stamp (Frame::emit_s)
     *  to the end of this call. */
    double since_source_s = 0.0;
};

/**
 * Decorator around one runtime BlockExecutor. It always records each
 * frame's outcome and age (the verdict check and the latency metrics
 * need them) and, in traced runs, also accumulates the host time spent
 * inside the wrapped executor — the per-layer busy time measured from
 * outside the program. The pipeline must run on the shared WallClock,
 * the clock Frame::emit_s is stamped with.
 */
class TapExecutor : public incam::BlockExecutor
{
  public:
    TapExecutor(std::unique_ptr<incam::BlockExecutor> wrapped, bool timed,
                std::vector<TapRecord> *log);

    bool process(incam::Frame &frame) override;

    double busySeconds() const { return busy; }

  private:
    std::unique_ptr<incam::BlockExecutor> inner;
    bool timed;
    std::vector<TapRecord> *records;
    double busy = 0.0;
};

/** Workload entry points. */
Result runFaCamera(const Args &args);
Result runVrRig(const Args &args);
Result runFleetDes(const Args &args);
Result runFleetThreads(const Args &args);

/**
 * The paced discrete-event fleet with non-zero retry waits that the
 * engine currently aborts on. Prints a JSON line with its frame count
 * before running and one with its ledger if the run completes.
 */
int runPacedDesProbe();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
