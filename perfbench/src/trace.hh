/**
 * @file
 * In-memory span recorder of the traced run.
 *
 * A span is (name, start, end, parent, level): the benchmark opens
 * one around each call into a layer (or around one stage of a whole
 * BFS level — a timer per call costs more than the calls it times),
 * nested under the span that caused it.  Spans stay in memory and
 * are written out once, when the run ends.  A span's self time is
 * its duration minus the part of its interval its children cover.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct Span {
    std::string name;
    double start = 0; ///< seconds since the tracer's epoch
    double end = 0;
    int parent = -1;  ///< index into the span list; -1 for roots
    int level = -1;   ///< BFS level for replay stages; -1 otherwise
};

/** Self time aggregated over every span of one name. */
struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double total = 0; ///< summed durations
    double self = 0;  ///< summed self times
};

/** Self time of each span of @p spans, in span order. */
std::vector<double> spanSelfTimes(const std::vector<Span> &spans);

/** Per-name totals, ordered by descending self time. */
std::vector<SelfTime> selfTimeTable(const std::vector<Span> &spans);

/** Text rendering of selfTimeTable (one row per name). */
std::string renderSelfTimeTable(const std::vector<SelfTime> &table,
                                double wallSeconds);

/** Single-threaded span recorder (one per traced run). */
class Tracer
{
  public:
    Tracer() : epoch_(std::chrono::steady_clock::now()) {}

    /** Seconds since the epoch. */
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    /** Open a span under the innermost open one; returns its id. */
    int begin(const std::string &name, int level = -1);

    /** Close span @p id (the innermost open one). */
    void end(int id);

    /** Duration of a closed span. */
    double
    duration(int id) const
    {
        return spans_[id].end - spans_[id].start;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** All spans as a JSON array. */
    std::string renderJson() const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Opens a span for the lifetime of the scope. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name, int level = -1)
        : tracer_(tracer), id_(tracer.begin(name, level))
    {
    }
    ~Scope() { tracer_.end(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
