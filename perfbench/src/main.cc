/**
 * @file
 * The perfbench binary: runs one workload and prints its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--golden tests/golden/scenario_verdicts_2dev.txt]
 *             [--work-dir DIR] [--revision REV]
 *
 * The last stdout line is one JSON object:
 *   {"correct": B, "attempted": N, "failed": N,
 *    "metrics": {"<name>": {"value": X, "unit": "U"}, ...}}
 * With --trace 0 the metrics are the end-to-end set, with --trace 1
 * the per-layer set.  A line before it carries the machine block.
 * The full record (machine block, sample counts, reported
 * percentiles, failed checks) goes to DIR/record-<workload>-s<N>-t<T>.json.
 * Exit status: 0 when every output check passed, 1 when one failed,
 * 2 on a usage error.
 */

#include <cstdio>
#include <exception>
#include <string>

#include "machine.hh"
#include "support/json.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--golden FILE] [--work-dir DIR] "
                 "[--revision REV]\nworkloads:");
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
}

/** Full-precision number, as the result line requires. */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    opt.goldenPath = "tests/golden/scenario_verdicts_2dev.txt";
    std::string revision;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                opt.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                opt.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (flag == "--trace") {
                opt.trace = value != "0";
            } else if (flag == "--golden") {
                opt.goldenPath = value;
            } else if (flag == "--work-dir") {
                opt.workDir = value;
            } else if (flag == "--revision") {
                revision = value;
            } else {
                usage();
                return 2;
            }
        } catch (const std::exception &) {
            usage();
            return 2;
        }
    }
    if (!have_workload || opt.seconds <= 0) {
        usage();
        return 2;
    }

    Outcome out;
    try {
        out = runWorkload(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    const Machine machine = probeMachine(revision);
    std::vector<std::string> full, failures;
    cxl::JsonObject metrics;
    for (const Metric &m : out.metrics) {
        metrics.raw(m.name, "{\"value\": " + number(m.value) +
                                ", \"unit\": " +
                                cxl::JsonObject::quote(m.unit) + "}");
        cxl::JsonObject f;
        f.str("name", m.name)
            .str("unit", m.unit)
            .raw("value", number(m.value))
            .num("samples", static_cast<std::uint64_t>(m.samples))
            .raw("percentile", number(m.percentile));
        full.push_back(f.render());
    }
    for (const std::string &f : out.failures)
        failures.push_back(cxl::JsonObject::quote(f));

    cxl::JsonObject record;
    record.str("schema", "cxl-perfbench-record/v1")
        .raw("machine", machine.renderJson())
        .str("workload", opt.workload)
        .num("seed", opt.seed)
        .raw("seconds", number(opt.seconds))
        .boolean("trace", opt.trace)
        .boolean("correct", out.correct)
        .num("attempted", out.attempted)
        .num("failed", out.failed)
        .raw("failed_frac",
             number(out.attempted
                        ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 0.0))
        .raw("metrics", cxl::JsonObject::array(full))
        .raw("failures", cxl::JsonObject::array(failures));
    for (const auto &[key, json] : out.details)
        record.raw(key, json);
    const std::string path = opt.workDir + "/record-" + opt.workload +
                             "-s" + std::to_string(opt.seed) + "-t" +
                             (opt.trace ? "1" : "0") + ".json";
    cxl::writeJsonFile(path, record);

    for (const std::string &f : out.failures)
        std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    std::printf("machine: %s\n", machine.renderJson().c_str());
    cxl::JsonObject result;
    result.boolean("correct", out.correct)
        .num("attempted", out.attempted)
        .num("failed", out.failed)
        .raw("metrics", metrics.render());
    std::printf("%s\n", result.render().c_str());
    std::fflush(stdout);
    return out.correct ? 0 : 1;
}
