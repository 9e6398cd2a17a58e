/**
 * @file
 * Tests of the benchmark's own logic: the tail-percentile rule,
 * self time from nested spans, the seeded request stream, and the
 * layer replay's agreement with the engine on a small model.
 */

#include <gtest/gtest.h>

#include <set>

#include "api/check.hh"
#include "api/scenarios.hh"
#include "serve/server.hh"
#include "replay.hh"
#include "stats.hh"
#include "stream.hh"
#include "trace.hh"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(static_cast<double>(i));
    return v;
}

} // namespace

TEST(Percentile, MedianOfOddAndEvenCounts)
{
    EXPECT_EQ(median({}), 0);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt)
{
    // 1000 samples: rank 990, ten beyond it — p99 itself.
    const Percentile p = tail(oneTo(1000), 99);
    EXPECT_EQ(p.percentile, 99);
    EXPECT_EQ(p.value, 990); // 991..1000 lie beyond it
    EXPECT_EQ(p.samples, 1000u);
}

TEST(Percentile, FallsBackToTheDeepestPercentileWithTenBeyond)
{
    // 999 samples: p99 would have 9 beyond; rank 989 has 10.
    const Percentile p = tail(oneTo(999), 99);
    EXPECT_EQ(p.value, 989);
    EXPECT_LT(p.percentile, 99);
    EXPECT_NEAR(p.percentile, 100.0 * 989 / 999, 1e-9);

    const Percentile p100 = tail(oneTo(100), 99);
    EXPECT_EQ(p100.value, 90);
    EXPECT_EQ(p100.percentile, 90);

    // Exactly twenty samples still support the median.
    const Percentile p20 = tail(oneTo(20), 99);
    EXPECT_EQ(p20.percentile, 50);
    EXPECT_EQ(p20.value, 10);
}

TEST(Percentile, TooFewSamplesReportTheFlaggedMedian)
{
    // Nineteen samples: no percentile >= 50 has ten beyond it.
    const Percentile p = tail(oneTo(19), 99);
    EXPECT_EQ(p.percentile, 50);
    EXPECT_EQ(p.value, 10);
    EXPECT_EQ(p.samples, 19u);

    const Percentile one = tail({7}, 99);
    EXPECT_EQ(one.percentile, 50);
    EXPECT_EQ(one.value, 7);

    EXPECT_EQ(tail({}, 99).samples, 0u);
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    // root [0,10] with children [1,3] and [2,5] (overlapping: union
    // 4) and [8,12] (clipped to [8,10]: 2) — self 10 - 6 = 4.
    // Grandchild [1.5,2.5] under the first child leaves it 1 self.
    std::vector<Span> spans = {
        {"root", 0, 10, -1, -1},  {"a", 1, 3, 0, -1},
        {"b", 2, 5, 0, -1},       {"c", 8, 12, 0, -1},
        {"leaf", 1.5, 2.5, 1, 0},
    };
    const std::vector<double> self = spanSelfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 4);
    EXPECT_DOUBLE_EQ(self[1], 1);
    EXPECT_DOUBLE_EQ(self[2], 3);
    EXPECT_DOUBLE_EQ(self[3], 4);
    EXPECT_DOUBLE_EQ(self[4], 1);

    const std::vector<SelfTime> table = selfTimeTable(spans);
    ASSERT_EQ(table.size(), 5u);
    double total_self = 0;
    for (const SelfTime &row : table)
        total_self += row.self;
    // Self times of a well-nested tree partition the root (plus the
    // child interval that sticks out of it).
    EXPECT_DOUBLE_EQ(total_self, 13);
}

TEST(SelfTime, TracerNestsAndAggregatesByName)
{
    Tracer tr;
    {
        Scope outer(tr, "outer");
        for (int i = 0; i < 3; ++i)
            Scope inner(tr, "inner", i);
    }
    ASSERT_EQ(tr.spans().size(), 4u);
    EXPECT_EQ(tr.spans()[1].parent, 0);
    EXPECT_EQ(tr.spans()[3].level, 2);
    const std::vector<SelfTime> table = selfTimeTable(tr.spans());
    std::size_t inner = 0;
    for (const SelfTime &row : table)
        inner += row.name == "inner" ? row.count : 0;
    EXPECT_EQ(inner, 3u);
    EXPECT_THROW(
        {
            Tracer bad;
            const int a = bad.begin("a");
            bad.begin("b");
            bad.end(a);
        },
        std::logic_error);
}

/** Sizes requests by running them, as the benchmark does. */
class RealSizes
{
  public:
    StatesOf
    fn()
    {
        return [this](const cxl::serve::Request &r) {
            cxl::serve::ResolvedRequest rr =
                cxl::serve::resolveRequest(r, cxl::EngineOptions{}, 0);
            rr.check.engine = rr.engine;
            return session_.run(rr.check).states;
        };
    }

  private:
    cxl::CheckSession session_;
};

TEST(RequestStream, SameSeedSameBytes)
{
    RealSizes sizes;
    const std::string a =
        renderStream(makeRequestStream(7, 200, sizes.fn()));
    const std::string b =
        renderStream(makeRequestStream(7, 200, sizes.fn()));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, renderStream(makeRequestStream(8, 200, sizes.fn())));
}

TEST(RequestStream, MixesRegistryInlineAndRepeatsInFixedShares)
{
    RealSizes sizes;
    std::vector<std::size_t> histograms[2];
    for (std::uint64_t seed : {3, 4}) {
        const RequestStream s = makeRequestStream(seed, 1000, sizes.fn());
        ASSERT_EQ(s.order.size(), 1000u);
        std::size_t repeats = 0;
        for (bool r : s.repeat)
            repeats += r ? 1 : 0;
        EXPECT_EQ(repeats, 500u);
        EXPECT_FALSE(s.repeat[0]);

        std::set<std::string> names;
        std::vector<std::size_t> &hist = histograms[seed - 3];
        hist.assign(kSizeClasses, 0);
        for (const cxl::serve::Request &r : s.distinct) {
            if (r.inlineCase) {
                EXPECT_EQ(r.inlineCase->devices, 2);
                ++hist[sizeClass(sizes.fn()(r))];
            } else {
                EXPECT_TRUE(names.insert(r.scenario).second);
            }
            EXPECT_EQ(r.engine.threads.value_or(0), 1u);
            EXPECT_TRUE(r.deterministic);
        }
        EXPECT_EQ(names.size(), cxl::scenarios::all().size());
        // A repeat names a request that appeared before it.
        std::size_t introduced = 0;
        for (std::size_t i = 0; i < s.order.size(); ++i) {
            if (s.repeat[i])
                EXPECT_LT(s.order[i], introduced);
            else
                EXPECT_EQ(s.order[i], introduced++);
        }
        EXPECT_EQ(introduced, s.distinct.size());
    }
    // Different cases, the same size mix.
    EXPECT_EQ(histograms[0], histograms[1]);
    EXPECT_GT(histograms[0][kSizeClasses - 2], 50u);
}

TEST(RequestStream, SizeClassesFollowTheBounds)
{
    EXPECT_EQ(sizeClass(0), 0u);
    EXPECT_EQ(sizeClass(29), 0u);
    EXPECT_EQ(sizeClass(30), 1u);
    EXPECT_EQ(sizeClass(5218), 3u);
    EXPECT_EQ(sizeClass(20000), kSizeClasses - 1);
}

TEST(LayerReplay, MatchesTheEngineOnTheTwoDeviceFreeRun)
{
    cxl::CheckSession session;
    Tracer tr;
    LayerReplay replay(session, tr);
    for (std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{3000}}) {
        cxl::CheckRequest req;
        req.scenario = "free-run";
        cxl::EngineOptions engine;
        engine.threads = 1;
        engine.maxStates = cap;
        req.engine = engine;
        const cxl::CheckResult res = session.run(req);
        const ReplayTotals t =
            replay.run(resolveReplayInput(req, engine));
        EXPECT_EQ(t.states, res.states) << "cap " << cap;
        EXPECT_EQ(t.transitions, res.transitions) << "cap " << cap;
        EXPECT_EQ(t.diameter, res.diameter) << "cap " << cap;
        EXPECT_EQ(t.deviceCanonCalls, 0u);
        EXPECT_GT(t.stageSeconds(), 0);
        EXPECT_LE(t.stageSeconds(), t.wallSeconds);
    }
    EXPECT_EQ(replay.firstStates().size(), LayerReplay::kColdStartStates);
}

TEST(LayerReplay, StopsAfterTheViolatingLevelLikeTheEngine)
{
    cxl::CheckSession session;
    Tracer tr;
    LayerReplay replay(session, tr);
    cxl::CheckRequest req;
    req.scenario = "snoop-pushes-go";
    cxl::EngineOptions engine;
    engine.threads = 1;
    engine.store = cxl::StoreKind::MmapCompact;
    req.engine = engine;
    const cxl::CheckResult res = session.run(req);
    ASSERT_TRUE(res.violation);
    const ReplayTotals t = replay.run(resolveReplayInput(req, engine));
    EXPECT_EQ(t.states, res.states);
    EXPECT_EQ(t.transitions, res.transitions);
    EXPECT_EQ(t.diameter, res.diameter);
}
