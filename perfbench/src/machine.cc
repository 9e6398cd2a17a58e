#include "machine.hh"

#include <sched.h>

#include <ctime>
#include <fstream>
#include <thread>

#include "support/json.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

std::size_t
onlineCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

Machine
probeMachine(const std::string &revision)
{
    Machine m;
    m.nproc = onlineCpus();
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                m.cpuModel = line.substr(colon + 2);
            break;
        }
    }
    if (m.cpuModel.empty())
        m.cpuModel = "unknown";
    m.compiler = PERFBENCH_COMPILER;
    m.buildType = PERFBENCH_BUILD_TYPE;
    m.revision = revision.empty() ? "unknown" : revision;
    char date[32];
    const std::time_t t = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&t, &utc);
    std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", &utc);
    m.date = date;
    return m;
}

std::string
Machine::renderJson() const
{
    cxl::JsonObject o;
    o.num("nproc", static_cast<std::uint64_t>(nproc))
        .str("cpu_model", cpuModel)
        .str("compiler", compiler)
        .str("build_type", buildType)
        .str("revision", revision)
        .str("date", date);
    return o.render();
}

} // namespace perfbench
