/**
 * @file
 * The checkd-mix request stream: a seeded, byte-for-byte
 * reproducible sequence of cxl-checkd/v1 check requests.
 *
 * Exactly half the positions (five in every block of ten, at seeded
 * places) repeat an earlier request, chosen uniformly, so a server
 * whose result cache holds the whole pool sees a cold (miss) and a
 * warm (hit) class of equal size.  The new requests are the scenario
 * registry's entries, each once at a seeded place, and inline
 * fuzz::ScenarioGen cases on two devices.
 *
 * The inline cases are stratified by exploration size: each size
 * class (states at one thread) gets a fixed share of them — the
 * generator's own mix — and cases drawn for a class whose share is
 * already filled are skipped.  Every seed thus yields the same mix
 * of tiny, small and large runs, and numbers from different seeds
 * compare; which cases fill each class is the seed's.  Every request
 * pins threads=1 and deterministic rendering, so served bytes are
 * comparable with an offline run.
 */

#ifndef PERFBENCH_STREAM_HH
#define PERFBENCH_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace perfbench
{

struct RequestStream {
    /** Distinct requests, in order of first appearance. */
    std::vector<cxl::serve::Request> distinct;
    /** Per stream position, the index into distinct. */
    std::vector<std::size_t> order;
    /** Per stream position, whether it repeats an earlier position. */
    std::vector<bool> repeat;
};

/** Upper state-count bounds of the size classes (the last class is
 * everything from the last bound up). */
inline constexpr std::uint64_t kSizeBounds[] = {30, 300, 3000, 10000};
inline constexpr std::size_t kSizeClasses = 5;

/**
 * Each class's share of the inline cases: ScenarioGen's own mix on
 * two devices, measured over 4,500 generated cases, except that the
 * largest class gets 2% instead of its natural ~1%.  At 1% the cold
 * class's p99 sits exactly on the boundary between the largest runs
 * and the next class and flips between them from run to run; at 2%
 * it falls inside the largest class.
 */
inline constexpr double kSizeShare[kSizeClasses] = {0.600, 0.199, 0.055,
                                                    0.126, 0.020};

/** Size class of an exploration of @p states states. */
std::size_t sizeClass(std::uint64_t states);

/** States a request explores at one thread (the caller runs it). */
using StatesOf = std::function<std::uint64_t(const cxl::serve::Request &)>;

/**
 * The stream of @p length positions for @p seed.  @p statesOf sizes
 * each generated inline case; it must be deterministic.
 * @throws std::runtime_error if the generator cannot fill the size
 *         classes within a generous number of draws.
 */
RequestStream makeRequestStream(std::uint64_t seed, std::size_t length,
                                const StatesOf &statesOf);

/** The stream as the wire lines a client sends, one per position —
 * what reproducibility is asserted on. */
std::string renderStream(const RequestStream &stream);

} // namespace perfbench

#endif // PERFBENCH_STREAM_HH
