// Shared plumbing for the perfbench binary: the seeded generator RNG,
// percentiles, clocks, peak memory and the result record every workload
// fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64: tiny, fast and fully determined by its seed, so the same
// --seed always yields byte-identical policies, delta streams and packet
// orders on every platform.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    // Uniform in [0, n).
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    // Uniform in [0, 1).
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
    std::uint64_t state_;
};

// A derived seed for sub-stream `stream` of `seed` (e.g. the i-th compile's
// policy), independent of how far the parent stream has advanced.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream) {
    return Rng(seed ^ (0xd1b54a32d192ed03ull * (stream + 1))).next();
}

// Nearest-rank percentile: the value at rank ceil(q * n) of the sorted
// samples, so exactly n - rank samples lie beyond it.
[[nodiscard]] inline std::size_t percentile_rank(std::size_t n, double q) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

// A tail percentile is reported only when at least this many samples lie
// beyond it; below that it is a single outlier's value, not a percentile.
inline constexpr std::size_t kTailBeyond = 10;

[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
    return n == 0 ? 0 : n - percentile_rank(n, q);
}

// Smallest sample count whose q-th percentile has kTailBeyond samples
// beyond it (100 for p90).
[[nodiscard]] inline std::size_t min_samples_for(double q) {
    std::size_t n = 1;
    while (samples_beyond(n, q) < kTailBeyond) ++n;
    return n;
}

// The q-th percentile, or nullopt when q > 0.5 and fewer than kTailBeyond
// samples lie beyond it. The median needs only one sample.
[[nodiscard]] inline std::optional<double> percentile(
    std::vector<double> values, double q) {
    if (values.empty()) return std::nullopt;
    if (q > 0.5 && samples_beyond(values.size(), q) < kTailBeyond)
        return std::nullopt;
    std::sort(values.begin(), values.end());
    return values[percentile_rank(values.size(), q) - 1];
}

[[nodiscard]] inline double median(std::vector<double> values) {
    return percentile(std::move(values), 0.5).value_or(0.0);
}

using Clock = std::chrono::steady_clock;

// Every workload pins the compiler's thread count (Compile_options::jobs),
// so MERLIN_THREADS and the host's core count never change the work.
inline constexpr int kThreads = 1;

// A run keeps measuring past --seconds until its p90 has kTailBeyond
// samples beyond it, but never past this.
inline constexpr double kHardStopSeconds = 60;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

struct Metric {
    double value = 0;
    std::string unit;
};

// What one workload run reports. `attempted`/`failed` count operations
// (deltas, compiles, packets); a failed operation is refused, wrong or
// undelivered. `summary` holds the workload-specific names printed as
// human-readable lines before the JSON result.
struct Result {
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::string> errors;  // first few failure descriptions
    std::map<std::string, Metric> end_to_end;
    std::map<std::string, Metric> per_layer;
    std::vector<std::pair<std::string, Metric>> summary;

    void fail(std::string why) {
        ++failed;
        if (errors.size() < 5) errors.push_back(std::move(why));
    }
};

// Knobs common to every workload.
struct Run_options {
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;          // self-test sizes, one set-up
    std::string trace_out;      // spans as JSON lines (traced runs only)
};

// Operations a run measures at least (it keeps going past --seconds until
// then): enough for a p90 with kTailBeyond samples beyond it. Tiny
// self-test runs only check correctness and stop at --seconds.
[[nodiscard]] inline std::size_t min_ops(const Run_options& options) {
    return options.tiny ? 1 : min_samples_for(0.9);
}

struct Latency {
    double p50_ms = 0;
    double p90_ms = 0;  // the maximum when a run holds too few samples
};

[[nodiscard]] inline Latency summarize(const std::vector<double>& ms) {
    Latency out;
    out.p50_ms = median(ms);
    out.p90_ms = percentile(ms, 0.9).value_or(
        ms.empty() ? 0.0 : *std::max_element(ms.begin(), ms.end()));
    return out;
}

// Set-ups a run measures; setup_s is their median.
[[nodiscard]] inline int setup_repeats(const Run_options& options,
                                       int workload_count) {
    return options.tiny ? 1 : workload_count;
}

// The end-to-end metrics every workload reports (see perfbench/README.md
// for what an operation and a unit of work are in each). The median is
// printed with the workload's own summary lines but not bounded: on a
// shared host it flips between the host's fast and slow phases.
void fill_end_to_end(Result& result, double setup_s, const Latency& latency,
                     double work_per_s);

Result run_churn(const Run_options& options);
Result run_provision(const Run_options& options);
Result run_forward(const Run_options& options);

}  // namespace perfbench
