/**
 * @file
 * The machine block every benchmark record carries: numbers taken on
 * different machines (core count, CPU, compiler, build type) or from
 * different sources are never compared.
 */

#ifndef PERFBENCH_MACHINE_HH
#define PERFBENCH_MACHINE_HH

#include <cstddef>
#include <string>

namespace perfbench
{

struct Machine {
    std::size_t nproc = 1;
    std::string cpuModel;
    std::string compiler;
    std::string buildType;
    /** Source revision as given by the caller (git sha, or a content
     * hash of the sources when the tree is not a git checkout). */
    std::string revision;
    /** UTC time of the run, ISO 8601. */
    std::string date;

    std::string renderJson() const;
};

/** CPUs this process may run on (the affinity mask, like nproc). */
std::size_t onlineCpus();

Machine probeMachine(const std::string &revision);

} // namespace perfbench

#endif // PERFBENCH_MACHINE_HH
