// merlin_perfbench: runs one benchmark workload and prints its metrics.
//
//   merlin_perfbench --workload churn|provision|forward --seed <n>
//                    --seconds <s> --trace 0|1 [--trace-out <file.jsonl>]
//
// Human-readable "# name value unit" lines come first; the last line is one
// JSON object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "merlin_perfbench: %s\nusage: merlin_perfbench --workload "
                 "churn|provision|forward --seed <n> --seconds <s> --trace "
                 "0|1 [--trace-out <file>]\n",
                 why);
    std::exit(2);
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Run_options options;
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        try {
            if (arg == "--workload") workload = value();
            else if (arg == "--seed") options.seed = std::stoull(value());
            else if (arg == "--seconds") options.seconds = std::stod(value());
            else if (arg == "--trace") options.trace = value() != "0";
            else if (arg == "--trace-out") options.trace_out = value();
            else usage(("unknown argument " + arg).c_str());
        } catch (const std::logic_error&) {
            usage(("malformed value for " + arg).c_str());
        }
    }

    perfbench::Result result;
    try {
        if (workload == "churn") result = perfbench::run_churn(options);
        else if (workload == "provision") result = perfbench::run_provision(options);
        else if (workload == "forward") result = perfbench::run_forward(options);
        else usage("unknown --workload");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "merlin_perfbench: %s failed: %s\n", workload.c_str(),
                     e.what());
        return 1;
    }

    for (const std::string& error : result.errors)
        std::fprintf(stderr, "merlin_perfbench: FAILED %s\n", error.c_str());
    std::printf("# workload %s seed %llu\n", workload.c_str(),
                static_cast<unsigned long long>(options.seed));
    for (const auto& [name, metric] : result.summary)
        std::printf("# %s %s %s\n", name.c_str(), json_number(metric.value).c_str(),
                    metric.unit.c_str());
    std::printf("# ops_failed_ratio %s ratio (%lld of %lld)\n",
                json_number(result.attempted > 0
                                ? static_cast<double>(result.failed) /
                                      static_cast<double>(result.attempted)
                                : 1.0)
                    .c_str(),
                result.failed, result.attempted);

    const auto& metrics = options.trace ? result.per_layer : result.end_to_end;
    std::string json = "{\"correct\": ";
    json += result.failed == 0 && result.attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : metrics) {
        if (!first) json += ", ";
        first = false;
        json += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
                ", \"unit\": \"" + metric.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
