#include "replay.hh"

#include <algorithm>
#include <stdexcept>

#include "api/scenarios.hh"
#include "checker/state_store.hh"
#include "support/resource.hh"

namespace perfbench
{

using namespace cxl;

ReplayInput
resolveReplayInput(const CheckRequest &request,
                   const EngineOptions &engine)
{
    ReplayInput in;
    if (!request.scenario.empty()) {
        const scenarios::Entry *entry =
            scenarios::byName(request.scenario);
        if (!entry) {
            throw std::runtime_error("unknown scenario '" +
                                     request.scenario + "'");
        }
        const int ndev = entry->deviceScalable ? request.devices
                                               : entry->fixedDevices;
        in.name = entry->name;
        in.scenario = entry->build(ndev);
        in.config = request.config.value_or(entry->config);
        in.families = request.families.value_or(entry->families);
    } else if (request.inlineScenario) {
        in.scenario = *request.inlineScenario;
        in.name = in.scenario.name;
        in.config = request.config.value_or(ProtocolConfig::correct());
        in.families =
            request.families.value_or(std::vector<std::string>{});
    } else {
        throw std::runtime_error("request names no scenario");
    }
    in.symmetry = engine.symmetry == SymmetryMode::On ||
                  (engine.symmetry == SymmetryMode::Auto &&
                   in.scenario.freeRun &&
                   in.scenario.numDevices() > 2);
    in.checkInvariants = request.checks != CheckKind::Deadlock;
    in.checkDeadlock = request.checks != CheckKind::Invariants;
    in.store = engine.store;
    in.maxStates = engine.maxStates != 0 ? engine.maxStates
                                         : ExploreOptions{}.maxStates;
    return in;
}

double
ReplayTotals::stageSeconds() const
{
    return fetchSeconds + successorsSeconds + tidCanonSeconds +
           deviceCanonSeconds + hashSeconds + insertSeconds +
           invariantsSeconds + sealSeconds;
}

void
ReplayTotals::add(const ReplayTotals &o)
{
    states += o.states;
    transitions += o.transitions;
    expanded += o.expanded;
    newStates += o.newStates;
    evals += o.evals;
    deviceCanonCalls += o.deviceCanonCalls;
    diameter = std::max(diameter, o.diameter);
    fetchSeconds += o.fetchSeconds;
    successorsSeconds += o.successorsSeconds;
    tidCanonSeconds += o.tidCanonSeconds;
    deviceCanonSeconds += o.deviceCanonSeconds;
    hashSeconds += o.hashSeconds;
    insertSeconds += o.insertSeconds;
    invariantsSeconds += o.invariantsSeconds;
    sealSeconds += o.sealSeconds;
    wallSeconds += o.wallSeconds;
    storeBytes += o.storeBytes;
    mappedHighBytes = std::max(mappedHighBytes, o.mappedHighBytes);
}

namespace
{

/** Edge states kept per level for the device-canonicalisation
 * probe, and the probe's overall budget. */
constexpr std::size_t kSamplesPerLevel = 64;
constexpr std::size_t kMaxSamples = 16384;

/** Runs one stage over a whole level inside one span and adds its
 * duration to @p total. */
template <typename Fn>
void
stage(Tracer &tracer, const char *name, std::uint32_t depth,
      double &total, Fn &&fn)
{
    const int id = tracer.begin(name, static_cast<int>(depth));
    fn();
    tracer.end(id);
    total += tracer.duration(id);
}

} // namespace

ReplayTotals
LayerReplay::run(const ReplayInput &in)
{
    ReplayTotals t;
    const int run_span = tracer_.begin("replay_run");
    const std::uint64_t anon_before = currentAnonRssBytes();

    const int devices = in.scenario.numDevices();
    const RuleSet &rules = session_.ruleSet(in.config, devices);
    InvariantSet filtered;
    const InvariantSet &invariants = selectFamilies(
        session_.invariantSet(in.config, devices), in.families,
        filtered);
    const Context ctx{&in.scenario};
    const Scenario &sc = in.scenario;

    std::uint64_t store_bytes = 0;
    {
        StateStore store(StoreConfig{
            1 << 16,
            storeKindCompact(in.store) ? StoreMode::Compact
                                       : StoreMode::Full,
            storeKindMmap(in.store) ? StoreBackend::Mmap
                                    : StoreBackend::InRam,
            std::string(), 0});

        auto remember = [this](const SystemState &s) {
            if (first_.size() < kColdStartStates)
                first_.push_back(s);
        };

        SystemState init = sc.initial;
        init.canonicaliseTids();
        if (in.symmetry) {
            init = init.deviceCanonical(true, true);
            ++t.deviceCanonCalls;
        }
        const std::uint32_t init_id =
            store.insert(init, StateStore::kNoParent, 0, 0).first;
        remember(init);
        ++t.newStates;
        bool stop = false;
        if (in.checkInvariants) {
            ++t.evals;
            stop = invariants.firstFailure(init, ctx) != nullptr;
        }

        // The engine's soft cap: near maxStates it flushes per
        // successor (one thread: threads * kFlushBatch below the cap).
        const std::uint64_t soft_cap =
            in.maxStates > kEngineFlushBatch
                ? in.maxStates - kEngineFlushBatch
                : 0;

        std::vector<std::uint32_t> frontier{init_id}, next;
        std::vector<SystemState> states;
        std::vector<StateStore::BatchItem> items;
        std::vector<std::size_t> fresh;
        std::vector<RuleSet::Successor> succs;
        if (!stop)
            store.sealLevel();

        std::uint32_t depth = 0;
        while (!stop && !frontier.empty()) {
            const int level_span =
                tracer_.begin("level", static_cast<int>(depth));
            t.diameter = std::max(t.diameter, depth);
            bool violation = false;
            bool capped = false;

            stage(tracer_, "fetch", depth, t.fetchSeconds, [&] {
                states.resize(frontier.size());
                for (std::size_t i = 0; i < frontier.size(); ++i)
                    store.stateInto(frontier[i], states[i]);
            });
            t.expanded += frontier.size();

            std::size_t first_overflow = SIZE_MAX;
            stage(tracer_, "successors", depth, t.successorsSeconds,
                  [&] {
                      items.clear();
                      for (std::size_t i = 0; i < states.size(); ++i) {
                          rules.successorsInto(states[i], sc, false,
                                               succs);
                          if (succs.empty() && in.checkDeadlock &&
                              !sc.freeRun && !sc.finished(states[i]))
                              violation = true;
                          for (RuleSet::Successor &s : succs) {
                              if (s.overflow && first_overflow == SIZE_MAX)
                                  first_overflow = items.size();
                              StateStore::BatchItem item;
                              item.state = s.state;
                              item.parent = frontier[i];
                              item.depth = depth + 1;
                              item.rule = s.rule->id;
                              items.push_back(std::move(item));
                          }
                      }
                  });

            stage(tracer_, "tid_canon", depth, t.tidCanonSeconds, [&] {
                for (StateStore::BatchItem &item : items)
                    item.state.canonicaliseTids();
            });

            if (in.symmetry) {
                stage(tracer_, "device_canon", depth,
                      t.deviceCanonSeconds, [&] {
                          for (StateStore::BatchItem &item : items)
                              item.state = item.state.deviceCanonical(
                                  true, true);
                      });
                t.deviceCanonCalls += items.size();
            }

            stage(tracer_, "hash", depth, t.hashSeconds, [&] {
                for (StateStore::BatchItem &item : items)
                    item.hash = item.state.hash();
            });

            for (std::size_t k = 0, step = std::max<std::size_t>(
                                        1, items.size() / kSamplesPerLevel);
                 k < items.size() && sampled_.size() < kMaxSamples;
                 k += step)
                sampled_.push_back(items[k].state);

            // Batches of kEngineFlushBatch successors, flushed one by
            // one near the state cap as the engine does, so a capped
            // replay stops on the same successor.
            next.clear();
            fresh.clear();
            std::size_t processed = 0;
            stage(tracer_, "insert", depth, t.insertSeconds, [&] {
                std::size_t start = 0;
                auto flush = [&](std::size_t end) {
                    if (end == start)
                        return;
                    store.insertBatch(items.data() + start, end - start);
                    for (std::size_t k = start; k < end; ++k) {
                        if (!items[k].inserted)
                            continue;
                        fresh.push_back(k);
                        next.push_back(items[k].id);
                    }
                    start = end;
                };
                for (std::size_t k = 0; k < items.size(); ++k) {
                    ++processed;
                    const std::size_t len = k + 1 - start;
                    if (store.size() + len >= soft_cap ||
                        len >= kEngineFlushBatch) {
                        flush(k + 1);
                        if (store.size() >= in.maxStates) {
                            capped = true;
                            break;
                        }
                    }
                }
                if (!capped)
                    flush(items.size());
            });
            t.transitions += processed;
            t.newStates += fresh.size();
            if (first_overflow < processed)
                violation = true;
            for (std::size_t k : fresh) {
                if (first_.size() >= kColdStartStates)
                    break;
                remember(items[k].state);
            }

            if (in.checkInvariants) {
                stage(tracer_, "invariants", depth,
                      t.invariantsSeconds, [&] {
                          for (std::size_t k : fresh) {
                              if (invariants.firstFailure(
                                      items[k].state, ctx) != nullptr)
                                  violation = true;
                          }
                      });
                t.evals += fresh.size();
            }

            stop = violation || capped;
            if (!stop) {
                stage(tracer_, "seal", depth, t.sealSeconds,
                      [&] { store.sealLevel(); });
            }
            t.mappedHighBytes =
                std::max(t.mappedHighBytes, store.mappedBytes());
            frontier.swap(next);
            tracer_.end(level_span);
            ++depth;
        }

        t.states = store.size();
        // Release the level buffers so the RSS sample below sees the
        // store alone.
        std::vector<StateStore::BatchItem>().swap(items);
        std::vector<SystemState>().swap(states);
        const std::uint64_t anon_after = currentAnonRssBytes();
        store_bytes = (anon_after > anon_before ? anon_after - anon_before
                                                : 0) +
                      store.backingFileBytes();
    }
    t.storeBytes = store_bytes;
    tracer_.end(run_span);
    t.wallSeconds = tracer_.duration(run_span);
    return t;
}

} // namespace perfbench
