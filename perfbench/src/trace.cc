#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "support/json.hh"

namespace perfbench
{

int
Tracer::begin(const std::string &name, int level)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.level = level;
    s.start = now();
    s.end = s.start;
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span closed out of order");
    spans_[id].end = now();
    open_.pop_back();
}

std::string
Tracer::renderJson() const
{
    std::vector<std::string> rows;
    rows.reserve(spans_.size());
    for (const Span &s : spans_) {
        cxl::JsonObject o;
        char start[32], end[32];
        std::snprintf(start, sizeof start, "%.9f", s.start);
        std::snprintf(end, sizeof end, "%.9f", s.end);
        o.str("name", s.name)
            .raw("start", start)
            .raw("end", end)
            .raw("parent", std::to_string(s.parent))
            .raw("level", std::to_string(s.level));
        rows.push_back(o.render());
    }
    return cxl::JsonObject::array(rows);
}

std::vector<double>
spanSelfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size()) {
            children[s.parent].push_back({s.start, s.end});
        }
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Length of the union of the children's intervals, clipped
        // to the parent's own interval.
        double covered = 0, run_start = 0, run_end = 0;
        bool open = false;
        for (auto [a, b] : kids) {
            a = std::max(a, p.start);
            b = std::min(b, p.end);
            if (b <= a)
                continue;
            if (open && a <= run_end) {
                run_end = std::max(run_end, b);
                continue;
            }
            if (open)
                covered += run_end - run_start;
            run_start = a;
            run_end = b;
            open = true;
        }
        if (open)
            covered += run_end - run_start;
        self[i] = std::max(0.0, (p.end - p.start) - covered);
    }
    return self;
}

std::vector<SelfTime>
selfTimeTable(const std::vector<Span> &spans)
{
    const std::vector<double> self = spanSelfTimes(spans);
    std::map<std::string, SelfTime> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SelfTime &row = by_name[spans[i].name];
        row.name = spans[i].name;
        ++row.count;
        row.total += spans[i].end - spans[i].start;
        row.self += self[i];
    }
    std::vector<SelfTime> table;
    for (auto &[name, row] : by_name)
        table.push_back(row);
    std::stable_sort(table.begin(), table.end(),
                     [](const SelfTime &a, const SelfTime &b) {
                         return a.self > b.self;
                     });
    return table;
}

std::string
renderSelfTimeTable(const std::vector<SelfTime> &table,
                    double wallSeconds)
{
    std::string out;
    char line[160];
    std::snprintf(line, sizeof line, "%-28s %10s %12s %12s %7s\n",
                  "span", "count", "total_ms", "self_ms", "self%");
    out += line;
    for (const SelfTime &row : table) {
        std::snprintf(line, sizeof line,
                      "%-28s %10zu %12.3f %12.3f %6.1f%%\n",
                      row.name.c_str(), row.count, row.total * 1e3,
                      row.self * 1e3,
                      wallSeconds > 0 ? 100.0 * row.self / wallSeconds
                                      : 0.0);
        out += line;
    }
    return out;
}

} // namespace perfbench
