// hqs_perfbench: the repository benchmark (see README.md in this directory).
//
//   hqs_perfbench --workload pec_sweep|service_mix --seed N
//                 --seconds S --trace 0|1 [--list] [--dump-inputs]
//
// Prints reference lines, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  Exits 1 on a wrong
// verdict or an invalid certificate, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <numeric>
#include <string>

#include "bench.hpp"
#include "inputs.hpp"
#include "src/base/rng.hpp"
#include "src/service/client.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double q)
{
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 50); }

void SetupSampler::sample()
{
    seconds_.push_back(setUp_());
    sinceLast_.reset();
}

void SetupSampler::sampleIfDue()
{
    if (sinceLast_.elapsedSeconds() >= 1.0) sample();
}

double SetupSampler::minSeconds() const
{
    return seconds_.empty() ? 0 : *std::min_element(seconds_.begin(), seconds_.end());
}

double peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    return hqs::Rng(seed ^ (stream * 0x9e3779b97f4a7c15ull)).next();
}

std::vector<std::size_t> shuffledOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    hqs::Rng rng(seed);
    for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

std::vector<std::size_t> roundOrder(std::size_t n, std::uint64_t seed, int round)
{
    if (round > 0)
        return shuffledOrder(n, streamSeed(seed, 100 + static_cast<std::uint64_t>(round)));
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    return order;
}

namespace {

int usage()
{
    std::cerr << "usage: hqs_perfbench --workload pec_sweep|service_mix "
                 "--seed N --seconds S --trace 0|1 [--list] [--dump-inputs]\n";
    return 2;
}

/// Digests of every generated input and of the seeded orders, one per line:
/// the determinism tests compare these across runs.
void dumpInputs(const RunConfig& cfg)
{
    if (cfg.workload == "service_mix") {
        const ServiceSchedule s = makeServiceSchedule(cfg.seed);
        for (int c = 0; c < 2; ++c)
            for (const Slot& slot : s.conn[c])
                std::printf("conn%d %s %d %d %016llx %s %s\n", c, toString(slot.kind),
                            slot.instance, slot.certify ? 1 : 0,
                            static_cast<unsigned long long>(fnv1a(s.text(slot))),
                            slot.addGroup.c_str(), slot.clauses.c_str());
        return;
    }
    const std::vector<PecSpec> specs = sweepSpecs();
    for (const PecSpec& s : specs)
        std::printf("instance %s %016llx\n", s.name().c_str(),
                    static_cast<unsigned long long>(fnv1a(encodePecText(s))));
    for (int round = 0; round < 3; ++round) {
        std::printf("round %d:", round);
        for (std::size_t i : roundOrder(specs.size(), cfg.seed, round))
            std::printf(" %zu", i);
        std::printf("\n");
    }
}

void printResult(const RunResult& r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

} // namespace perfbench

int main(int argc, char** argv)
{
    using namespace perfbench;
    RunConfig cfg;
    bool list = false, dump = false, haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        char* end = nullptr;
        if (arg == "--workload" && hasValue) {
            cfg.workload = argv[++i];
            haveWorkload = true;
        } else if (arg == "--seed" && hasValue) {
            cfg.seed = std::strtoull(argv[++i], &end, 10);
            if (*end) return usage();
        } else if (arg == "--seconds" && hasValue) {
            cfg.seconds = std::strtod(argv[++i], &end);
            if (*end || !(cfg.seconds > 0)) return usage();
        } else if (arg == "--trace" && hasValue) {
            const std::string v = argv[++i];
            if (v != "0" && v != "1") return usage();
            cfg.trace = v == "1";
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--dump-inputs") {
            dump = true;
        } else {
            return usage();
        }
    }
    if (!haveWorkload || (cfg.workload != "pec_sweep" && cfg.workload != "service_mix"))
        return usage();
    if (dump) {
        dumpInputs(cfg);
        return 0;
    }

    hqs::service::ignoreSigpipe();
    RunResult r;
    try {
        r = cfg.workload == "service_mix" ? runServiceMix(cfg) : runPecSweep(cfg);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    for (const std::string& note : r.notes)
        if (list || note.rfind("instance ", 0) != 0) std::printf("# %s\n", note.c_str());
    printResult(r);
    return r.correct ? 0 : 1;
}
