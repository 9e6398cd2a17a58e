/**
 * @file
 * The four benchmark workloads and their metrics.
 *
 *   swmr4-sym          4-device free run, symmetry on, ram store,
 *                      nproc threads, capped at 1M states
 *   swmr3-nosym-mmap   complete 3-device free run, symmetry off,
 *                      mmap-compact store, nproc threads
 *   checkd-mix         in-process cxl_checkd (nproc/2 workers) driven
 *                      by a closed loop of nproc/2 clients replaying a
 *                      seeded request stream
 *   paper-suite        Tables 1-3, the litmus suite, the deadlock grid
 *                      and the obligation matrix through one session
 *
 * A run repeats passes of the workload's unit of work until its
 * measuring time is up; every pass starts from a fresh session or
 * server (its set-up is timed), issues the unit cold and — for the
 * in-process workloads — again warm, and checks every output.  With
 * tracing on, the run instead times each layer on the workload's
 * inputs (see README.md for the metric -> layer -> workload table).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** tests/golden/scenario_verdicts_2dev.txt of the tree under
     * test (checkd-mix compares registry verdict lines with it). */
    std::string goldenPath;
    /** Directory for the Unix socket and trace files. */
    std::string workDir = ".";
};

struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
    /** Samples behind the value (0 when it is a single reading). */
    std::size_t samples = 0;
    /** Reported percentile for latency tails (0 otherwise). */
    double percentile = 0;
};

struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Failed output checks, one line each. */
    std::vector<std::string> failures;
    /** Extra JSON members for the run record (rendered objects). */
    std::vector<std::pair<std::string, std::string>> details;
};

const std::vector<std::string> &workloadNames();

/** Run one workload.  @throws std::runtime_error on bad options. */
Outcome runWorkload(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
