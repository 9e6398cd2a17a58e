#include "stream.hh"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "api/scenarios.hh"
#include "fuzz/gen.hh"

namespace perfbench
{

using cxl::serve::Request;

namespace
{

constexpr std::size_t kBlock = 10;
constexpr std::size_t kRepeatsPerBlock = 5;

/** Draws allowed per inline case before giving up. */
constexpr std::size_t kMaxDrawsPerCase = 50;

Request
baseRequest()
{
    Request r;
    r.engine.threads = 1;
    r.deterministic = true;
    r.progress = false;
    return r;
}

/** Seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T> &v, cxl::fuzz::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(static_cast<std::uint32_t>(i))]);
}

} // namespace

std::size_t
sizeClass(std::uint64_t states)
{
    std::size_t c = 0;
    while (c < std::size(kSizeBounds) && states >= kSizeBounds[c])
        ++c;
    return c;
}

RequestStream
makeRequestStream(std::uint64_t seed, std::size_t length,
                  const StatesOf &statesOf)
{
    cxl::fuzz::Rng pick(seed ^ 0x5eed0f5eed0f5eedull);

    // Which positions repeat: five seeded slots in every block of
    // ten; the very first position is always new.
    std::vector<bool> repeat(length, false);
    for (std::size_t b = 0; b < length; b += kBlock) {
        std::vector<char> block(kBlock, 0);
        std::fill(block.begin(), block.begin() + kRepeatsPerBlock, 1);
        shuffle(block, pick);
        if (b == 0 && block[0]) {
            const auto slot = std::find(block.begin(), block.end(), 0);
            std::swap(block[0], *slot);
        }
        for (std::size_t i = 0; i < kBlock && b + i < length; ++i)
            repeat[b + i] = block[i] != 0;
    }
    const std::size_t fresh =
        static_cast<std::size_t>(std::count(repeat.begin(), repeat.end(),
                                            false));

    // Which new slots carry the registry entries: a seeded sample of
    // the first 8x as many new slots as there are entries.
    const std::vector<cxl::scenarios::Entry> &registry =
        cxl::scenarios::all();
    const std::size_t n_registry = std::min(registry.size(), fresh);
    std::vector<std::size_t> window(std::min(fresh, 8 * n_registry));
    for (std::size_t i = 0; i < window.size(); ++i)
        window[i] = i;
    shuffle(window, pick);
    std::vector<bool> is_registry(fresh, false);
    for (std::size_t i = 0; i < n_registry; ++i)
        is_registry[window[i]] = true;

    // The inline pool, stratified by exploration size.
    const std::size_t n_inline = fresh - n_registry;
    std::size_t quota[kSizeClasses];
    std::size_t assigned = 0;
    for (std::size_t c = 1; c < kSizeClasses; ++c) {
        quota[c] = static_cast<std::size_t>(
            kSizeShare[c] * static_cast<double>(n_inline));
        assigned += quota[c];
    }
    quota[0] = n_inline - assigned;

    cxl::fuzz::GenOptions gen_options;
    gen_options.seed = seed;
    gen_options.minDevices = 2;
    gen_options.maxDevices = 2;
    cxl::fuzz::ScenarioGen gen(gen_options);
    std::vector<Request> pool;
    for (std::size_t draws = 0; pool.size() < n_inline; ++draws) {
        if (draws > kMaxDrawsPerCase * n_inline + 100) {
            throw std::runtime_error(
                "request stream: generator did not fill the size "
                "classes");
        }
        Request r = baseRequest();
        cxl::fuzz::FuzzCase c = gen.next();
        r.devices = c.devices;
        r.inlineCase = std::move(c);
        const std::size_t cls = sizeClass(statesOf(r));
        if (quota[cls] == 0)
            continue;
        --quota[cls];
        pool.push_back(std::move(r));
    }

    RequestStream s;
    std::size_t next_registry = 0, next_inline = 0, slot = 0;
    for (std::size_t pos = 0; pos < length; ++pos) {
        if (repeat[pos]) {
            s.order.push_back(pick.below(
                static_cast<std::uint32_t>(s.distinct.size())));
            s.repeat.push_back(true);
            continue;
        }
        Request r;
        if (is_registry[slot++]) {
            const cxl::scenarios::Entry &e = registry[next_registry++];
            r = baseRequest();
            r.scenario = e.name;
            r.devices = e.deviceScalable ? 2 : e.fixedDevices;
        } else {
            r = std::move(pool[next_inline++]);
        }
        r.id = "q" + std::to_string(s.distinct.size());
        s.order.push_back(s.distinct.size());
        s.repeat.push_back(false);
        s.distinct.push_back(std::move(r));
    }
    return s;
}

std::string
renderStream(const RequestStream &stream)
{
    std::string out;
    for (std::size_t idx : stream.order) {
        out += cxl::serve::renderRequestJson(stream.distinct[idx]);
        out += '\n';
    }
    return out;
}

} // namespace perfbench
