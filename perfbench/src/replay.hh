/**
 * @file
 * The layer replay: a single-threaded BFS built only from public
 * layer calls, in the order the engine makes them —
 *
 *   1. StateStore::stateInto            (checker: fetch)
 *   2. RuleSet::successorsInto(false)   (protocol: successors)
 *   3. SystemState::canonicaliseTids    (protocol: tid_canon)
 *   4. SystemState::deviceCanonical     (protocol: device_canon)
 *   5. SystemState::hash                (protocol: hash)
 *   6. StateStore::insertBatch          (checker: insert)
 *   7. InvariantSet::firstFailure       (invariants: eval)
 *
 * plus StateStore::sealLevel at each level barrier.  Each stage runs
 * over a whole BFS level inside one span, so the timers cost a few
 * clock reads per level instead of one per call.
 *
 * The replay keeps the engine's one-thread order — frontier order,
 * successor order — and its stopping rules: per-successor flushes
 * near the state cap (so a capped run stops on the same successor)
 * and stop-after-the-violating-level.  Its state and transition
 * counts and its diameter therefore equal CheckSession::run at one
 * thread, capped runs included; the benchmark checks that they do.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/check.hh"
#include "trace.hh"

namespace perfbench
{

/** The engine's successor flush batch (explorer.cc kFlushBatch):
 * the replay inserts in batches of the same size, and the soft state
 * cap sits this far below the cap. */
inline constexpr std::size_t kEngineFlushBatch = 512;

/** One exploration, resolved the way CheckSession::run resolves it. */
struct ReplayInput {
    std::string name;
    cxl::Scenario scenario;
    cxl::ProtocolConfig config;
    std::vector<std::string> families;
    bool symmetry = false;
    bool checkInvariants = true;
    bool checkDeadlock = true;
    cxl::StoreKind store = cxl::StoreKind::InRam;
    std::uint64_t maxStates = 0;
};

/**
 * Resolve @p request under @p engine (registry entry or inline
 * scenario, default config and families, the symmetry Auto rule,
 * the default state cap).
 * @throws std::runtime_error on an unknown scenario.
 */
ReplayInput resolveReplayInput(const cxl::CheckRequest &request,
                               const cxl::EngineOptions &engine);

/** Counts and stage times of one or more replayed explorations. */
struct ReplayTotals {
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t expanded = 0;     ///< frontier states fetched
    std::uint64_t newStates = 0;    ///< insert attempts that inserted
    std::uint64_t evals = 0;        ///< firstFailure calls
    std::uint64_t deviceCanonCalls = 0;
    std::uint32_t diameter = 0;

    double fetchSeconds = 0;
    double successorsSeconds = 0;
    double tidCanonSeconds = 0;
    double deviceCanonSeconds = 0;
    double hashSeconds = 0;
    double insertSeconds = 0;
    double invariantsSeconds = 0;
    double sealSeconds = 0;
    double wallSeconds = 0;

    /** Store memory: anonymous RSS growth while the store lived plus
     * its backing file bytes, summed over explorations. */
    std::uint64_t storeBytes = 0;
    /** Largest StateStore::mappedBytes seen at a level barrier. */
    std::uint64_t mappedHighBytes = 0;

    double stageSeconds() const;
    void add(const ReplayTotals &other);
};

class LayerReplay
{
  public:
    LayerReplay(cxl::CheckSession &session, Tracer &tracer)
        : session_(session), tracer_(tracer)
    {
    }

    /** Replay one exploration under a "replay_run" span. */
    ReplayTotals run(const ReplayInput &input);

    /** The first kColdStartStates states inserted over all runs, in
     * insertion order — the cold-start probe's input. */
    const std::vector<cxl::SystemState> &
    firstStates() const
    {
        return first_;
    }

    /** Successor states (tid-canonical) sampled across levels — the
     * device-canonicalisation probe's input. */
    const std::vector<cxl::SystemState> &
    sampledEdges() const
    {
        return sampled_;
    }

    static constexpr std::size_t kColdStartStates = 256;

  private:
    cxl::CheckSession &session_;
    Tracer &tracer_;
    std::vector<cxl::SystemState> first_;
    std::vector<cxl::SystemState> sampled_;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
