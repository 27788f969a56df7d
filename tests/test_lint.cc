/**
 * @file
 * Tests for tools/lint_invariants.py — the repo invariant linter the
 * CI static-analysis job gates on.
 *
 * The linter enforces boundaries no compiler checks (wall time only
 * in sim/clock.*, randomness only in common/rng.hh, locks only
 * through the annotated wrappers, LossLedger roll-up writes paired,
 * the SharedLink contract adjacent to its declarations, fault-plan
 * draws only in the runtime's shared rule), so this
 * suite proves two things about it:
 *
 *  1. *Sensitivity*: each rule actually fires on a minimal bad
 *     fixture — a linter that silently stopped matching would
 *     otherwise keep reporting a clean tree forever.
 *  2. *Specificity + clean tree*: the suppression syntax works, and
 *     the real src/ tree lints clean (the property the CI job gates
 *     on; running it here too means a plain `ctest` catches a
 *     violation before a PR ever reaches CI).
 *
 * Fixtures are written to a per-process temp directory and passed to
 * the linter as explicit file arguments. The suite shells out to the
 * same python3 entry point CI uses; if the host has no python3 the
 * suite skips rather than fails (the linter still gates in CI).
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace {

#ifndef INCAM_SOURCE_DIR
#error "CMake must define INCAM_SOURCE_DIR (checkout root) for test_lint"
#endif

const std::string kRoot = INCAM_SOURCE_DIR;
const std::string kLinter = kRoot + "/tools/lint_invariants.py";

bool
havePython()
{
    // "command -v" succeeds iff python3 resolves; cheap and portable
    // across the CI images.
    return std::system("command -v python3 > /dev/null 2>&1") == 0;
}

/** Run the linter on @p files; returns its exit status and captures
 *  stdout+stderr into @p output. */
int
runLinter(const std::string &files, std::string *output)
{
    const std::string cmd = "python3 '" + kLinter + "' " + files + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
        return -1;
    }
    char buf[512];
    output->clear();
    while (fgets(buf, sizeof(buf), pipe) != nullptr) {
        *output += buf;
    }
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Write @p body to a uniquely named fixture file; returns its path.
 *  @p name may contain directories (for path-scoped rules such as
 *  obs-clock, whose scope is decided by the path prefix). */
std::string
writeFixture(const std::string &name, const std::string &body)
{
    static const std::string dir = [] {
        std::string d = ::testing::TempDir() + "incam_lint_" +
                        std::to_string(::getpid());
        const std::string mk = "mkdir -p '" + d + "'";
        EXPECT_EQ(std::system(mk.c_str()), 0);
        return d;
    }();
    const std::string path = dir + "/" + name;
    const auto slash = name.rfind('/');
    if (slash != std::string::npos) {
        const std::string mk =
            "mkdir -p '" + dir + "/" + name.substr(0, slash) + "'";
        EXPECT_EQ(std::system(mk.c_str()), 0);
    }
    std::ofstream out(path);
    out << body;
    EXPECT_TRUE(out.good());
    return path;
}

#define SKIP_WITHOUT_PYTHON()                                          \
    do {                                                               \
        if (!havePython()) {                                           \
            GTEST_SKIP() << "python3 not on PATH; linter gates in CI"; \
        }                                                              \
    } while (0)

TEST(Lint, FlagsRawWallClockRead)
{
    SKIP_WITHOUT_PYTHON();
    const std::string f = writeFixture("wall.cc",
        "#include <chrono>\n"
        "double now() {\n"
        "    return std::chrono::duration<double>(\n"
        "        std::chrono::steady_clock::now().time_since_epoch())\n"
        "        .count();\n"
        "}\n");
    std::string out;
    EXPECT_EQ(runLinter(f, &out), 1) << out;
    EXPECT_NE(out.find("[wall-clock]"), std::string::npos) << out;
    EXPECT_NE(out.find("steady_clock"), std::string::npos) << out;
}

TEST(Lint, FlagsHostSleepAndSystemClock)
{
    SKIP_WITHOUT_PYTHON();
    const std::string f = writeFixture("sleep.cc",
        "#include <chrono>\n"
        "#include <thread>\n"
        "void nap() {\n"
        "    std::this_thread::sleep_for(std::chrono::seconds(1));\n"
        "    (void)std::chrono::system_clock::now();\n"
        "}\n");
    std::string out;
    EXPECT_EQ(runLinter(f, &out), 1) << out;
    EXPECT_NE(out.find("raw host sleep"), std::string::npos) << out;
    EXPECT_NE(out.find("system_clock"), std::string::npos) << out;
}

TEST(Lint, FlagsRawRandomness)
{
    SKIP_WITHOUT_PYTHON();
    const std::string f = writeFixture("rng.cc",
        "#include <cstdlib>\n"
        "#include <random>\n"
        "int roll() {\n"
        "    std::random_device rd;\n"
        "    std::mt19937 gen(rd());\n"
        "    return rand() + static_cast<int>(gen());\n"
        "}\n");
    std::string out;
    EXPECT_EQ(runLinter(f, &out), 1) << out;
    EXPECT_NE(out.find("[rng]"), std::string::npos) << out;
    EXPECT_NE(out.find("random_device"), std::string::npos) << out;
    EXPECT_NE(out.find("mt19937"), std::string::npos) << out;
}

TEST(Lint, FlagsUnannotatedMutex)
{
    SKIP_WITHOUT_PYTHON();
    const std::string f = writeFixture("mutex.cc",
        "#include <mutex>\n"
        "struct S {\n"
        "    std::mutex mu;\n"
        "    int v = 0;\n"
        "    void bump() {\n"
        "        std::lock_guard<std::mutex> lk(mu);\n"
        "        ++v;\n"
        "    }\n"
        "};\n");
    std::string out;
    EXPECT_EQ(runLinter(f, &out), 1) << out;
    EXPECT_NE(out.find("[raw-mutex]"), std::string::npos) << out;
    EXPECT_NE(out.find("AnnotatedMutex"), std::string::npos) << out;
    EXPECT_NE(out.find("MutexLock"), std::string::npos) << out;
}

TEST(Lint, FlagsUnpairedLedgerWrite)
{
    SKIP_WITHOUT_PYTHON();
    // Writes offered and delivered but forgets dropped: the classic
    // way the offered == delivered + dropped invariant rots.
    const std::string f = writeFixture("ledger.cc",
        "struct Ledger { long offered; long delivered; long dropped; };\n"
        "void book(Ledger &lg, long n) {\n"
        "    lg.offered += n;\n"
        "    lg.delivered += n;\n"
        "}\n");
    std::string out;
    EXPECT_EQ(runLinter(f, &out), 1) << out;
    EXPECT_NE(out.find("[ledger-pairing]"), std::string::npos) << out;
    EXPECT_NE(out.find("never dropped"), std::string::npos) << out;
}

TEST(Lint, LedgerSubfieldsAndReadsDoNotCount)
{
    SKIP_WITHOUT_PYTHON();
    // delivered_remote / dropped_fault are sub-fields with their own
    // accounting; comparisons and reads are not writes. None of these
    // may trip the pairing rule.
    const std::string f = writeFixture("ledger_ok.cc",
        "struct Ledger {\n"
        "    long delivered_remote; long dropped_fault;\n"
        "    long offered_hint;\n"
        "};\n"
        "bool check(const Ledger &lg, long delivered, long dropped) {\n"
        "    return delivered == dropped && lg.delivered_remote >= 0;\n"
        "}\n"
        "void sub(Ledger &lg) {\n"
        "    lg.delivered_remote += 1;\n"
        "    lg.dropped_fault += 1;\n"
        "    lg.offered_hint = 2;\n"
        "}\n");
    std::string out;
    EXPECT_EQ(runLinter(f, &out), 0) << out;
}

TEST(Lint, SuppressionSilencesOneLine)
{
    SKIP_WITHOUT_PYTHON();
    const std::string f = writeFixture("suppressed.cc",
        "#include <chrono>\n"
        "double boot() {\n"
        "    // One-time boot probe, deliberately outside sim::Clock:\n"
        "    return std::chrono::duration<double>(\n"
        "        std::chrono::steady_clock::now() // lint:allow(wall-clock): boot probe\n"
        "            .time_since_epoch())\n"
        "        .count();\n"
        "}\n");
    std::string out;
    EXPECT_EQ(runLinter(f, &out), 0) << out;

    // The suppression is per-rule: allowing the wrong rule changes
    // nothing.
    const std::string g = writeFixture("missuppressed.cc",
        "#include <chrono>\n"
        "double boot() {\n"
        "    return std::chrono::duration<double>(\n"
        "        std::chrono::steady_clock::now() // lint:allow(rng): wrong rule\n"
        "            .time_since_epoch())\n"
        "        .count();\n"
        "}\n");
    EXPECT_EQ(runLinter(g, &out), 1) << out;
    EXPECT_NE(out.find("[wall-clock]"), std::string::npos) << out;
}

TEST(Lint, CommentsAndStringsNeverFire)
{
    SKIP_WITHOUT_PYTHON();
    const std::string f = writeFixture("prose.cc",
        "// Historically this used std::chrono::steady_clock and a raw\n"
        "// std::mutex; see the docs. rand() is also banned.\n"
        "/* block prose: system_clock, lock_guard, random_device */\n"
        "const char *kDoc = \"steady_clock std::mutex rand()\";\n"
        "int answer() { return 42; }\n");
    std::string out;
    EXPECT_EQ(runLinter(f, &out), 0) << out;
}

TEST(Lint, ArbiterContractRuleFiresOnBareDeclarations)
{
    SKIP_WITHOUT_PYTHON();
    // A file named uplink.hh with no contract section and an
    // undocumented acquire(): both findings must appear. Calls to
    // acquire()/release() are not declarations and need no comment.
    const std::string f = writeFixture("uplink.hh",
        "class SharedLink {\n"
        "  public:\n"
        "    double acquire(int endpoint, double bytes);\n"
        "\n"
        "    /** Documented, adjacent. */\n"
        "    void release(int endpoint);\n"
        "\n"
        "    double cycle()\n"
        "    {\n"
        "        release(0);\n"
        "        return acquire(0, 1.0);\n"
        "    }\n"
        "};\n");
    std::string out;
    EXPECT_EQ(runLinter(f, &out), 1) << out;
    EXPECT_NE(out.find("[arbiter-contract]"), std::string::npos) << out;
    EXPECT_NE(out.find("acquire() declaration has no adjacent"),
              std::string::npos)
        << out;
    // release() is documented and the calls are not declarations;
    // neither may be reported.
    EXPECT_EQ(out.find("release() declaration has no adjacent"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("uplink.hh:10:"), std::string::npos) << out;
    EXPECT_EQ(out.find("uplink.hh:11:"), std::string::npos) << out;
    EXPECT_NE(out.find("missing the audited contract statement"),
              std::string::npos)
        << out;
}

TEST(Lint, ObsClockRuleFiresUnderSrcObs)
{
    SKIP_WITHOUT_PYTHON();
    // src/obs/ must never read host time: every timestamp arrives as
    // an argument stamped off the run's sim::Clock. A chrono include
    // or a libc time call under that prefix is a finding even though
    // the wall-clock rule (named clocks only) would not fire.
    const std::string f = writeFixture("src/obs/sneaky_time.cc",
        "#include <chrono>\n"
        "#include <ctime>\n"
        "double stamp() {\n"
        "    struct timeval tv;\n"
        "    gettimeofday(&tv, nullptr);\n"
        "    return std::chrono::duration<double>(1.0).count() + tv.tv_sec;\n"
        "}\n");
    std::string out;
    EXPECT_EQ(runLinter(f, &out), 1) << out;
    EXPECT_NE(out.find("[obs-clock]"), std::string::npos) << out;
    EXPECT_NE(out.find("gettimeofday"), std::string::npos) << out;
    EXPECT_NE(out.find("std::chrono use"), std::string::npos) << out;
}

TEST(Lint, ObsClockRuleScopedToSrcObs)
{
    SKIP_WITHOUT_PYTHON();
    // The identical tokens outside src/obs/ are not obs-clock
    // findings (and name no banned clock, so wall-clock stays quiet
    // too): the rule is a scoped ban, not a global one.
    const std::string f = writeFixture("elsewhere_time.cc",
        "#include <chrono>\n"
        "#include <ctime>\n"
        "double stamp() {\n"
        "    struct timeval tv;\n"
        "    gettimeofday(&tv, nullptr);\n"
        "    return std::chrono::duration<double>(1.0).count() + tv.tv_sec;\n"
        "}\n");
    std::string out;
    EXPECT_EQ(runLinter(f, &out), 0) << out;
}

TEST(Lint, FaultDrawsRuleConfinesPlanDrawsToTheRuntime)
{
    SKIP_WITHOUT_PYTHON();
    // The fault plan is drawn only by the runtime's shared attempt,
    // stage and source rule (and inside src/fault/). The same calls
    // elsewhere under src/ are findings, one per line; in
    // src/runtime/runtime.cc they pass.
    const std::string body =
        "bool lost(const FaultInjector *inj, long frame) {\n"
        "    // txLost( in prose never fires\n"
        "    return inj->txLost(0, frame, 0, -1.0) ||\n"
        "           inj->cameraDown(0, 0.0);\n"
        "}\n";
    std::string out;
    const std::string bad = writeFixture("src/sim/draws.cc", body);
    EXPECT_EQ(runLinter(bad, &out), 1) << out;
    EXPECT_NE(out.find("draws.cc:3: [fault-draws]"), std::string::npos)
        << out;
    EXPECT_NE(out.find("draws.cc:4: [fault-draws]"), std::string::npos)
        << out;
    EXPECT_EQ(out.find("draws.cc:2:"), std::string::npos) << out;

    const std::string ok = writeFixture("src/runtime/runtime.cc", body);
    EXPECT_EQ(runLinter(ok, &out), 0) << out;
}

TEST(Lint, CleanTreeHasZeroFindings)
{
    SKIP_WITHOUT_PYTHON();
    // The property CI gates on: the real src/ tree lints clean, with
    // zero blanket suppressions. Runs the same default sweep the CI
    // job runs (`--root <checkout>` scans src/ recursively).
    std::string out;
    const std::string cmd = "--root '" + kRoot + "'";
    EXPECT_EQ(runLinter(cmd, &out), 0) << out;
    EXPECT_NE(out.find("clean"), std::string::npos) << out;
}

} // namespace
