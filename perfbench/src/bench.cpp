#include "bench.h"

#include <sys/resource.h>

namespace perfbench {

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void fill_end_to_end(Result& result, double setup_s, const Latency& latency,
                     double work_per_s) {
    auto& m = result.end_to_end;
    m["setup_s"] = {setup_s, "s"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    m["op_p90_ms"] = {latency.p90_ms, "ms"};
    m["work_per_s"] = {work_per_s, "1/s"};
}

}  // namespace perfbench
