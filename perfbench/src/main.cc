/**
 * @file
 * perfbench harness entry point. perfbench/run.py builds this binary
 * and invokes it once per workload:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   perfbench --probe paced-des-retry
 *
 * The last line of standard output is the JSON result; run.py checks
 * it against BENCHMARK.json and merges the probe's frames into
 * fleet_des.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hh"

namespace {

int
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s --workload fa_camera|vr_rig|fleet_des|"
                 "fleet_threads --seed N --seconds S --trace 0|1\n"
                 "       %s --probe paced-des-retry\n",
                 prog, prog);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    std::string probe;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            return usage(argv[0]);
        }
        const char *value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            args.trace = std::strcmp(value, "0") != 0;
        } else if (flag == "--probe") {
            probe = value;
        } else {
            return usage(argv[0]);
        }
    }

    try {
        if (probe == "paced-des-retry") {
            return perfbench::runPacedDesProbe();
        }
        if (!probe.empty() || !(args.seconds > 0.0)) {
            return usage(argv[0]);
        }
        perfbench::Result result;
        if (args.workload == "fa_camera") {
            result = perfbench::runFaCamera(args);
        } else if (args.workload == "vr_rig") {
            result = perfbench::runVrRig(args);
        } else if (args.workload == "fleet_des") {
            result = perfbench::runFleetDes(args);
        } else if (args.workload == "fleet_threads") {
            result = perfbench::runFleetThreads(args);
        } else {
            return usage(argv[0]);
        }
        result.print();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
