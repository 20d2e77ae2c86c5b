// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call into a layer's public function
// (nothing inside src/ is instrumented), kept in memory, and written out
// once when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;         // index of the enclosing span, -1 at the root
    long long request = -1;  // delta, compile or burst index
};

class Tracer {
public:
    Tracer();

    // Opens a span under the innermost open one; returns its index.
    int begin(std::string name, long long request);
    void end(int span);

    // RAII form of begin/end; a null tracer records nothing, so set-up
    // code shared by the untraced and traced runs stays identical.
    class Scope {
    public:
        Scope(Tracer* tracer, std::string name, long long request)
            : tracer_(tracer),
              span_(tracer ? tracer->begin(std::move(name), request) : -1) {}
        ~Scope() {
            if (tracer_) tracer_->end(span_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_;
        int span_;
    };

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    [[nodiscard]] double duration_ns(int span) const {
        return static_cast<double>(spans_[static_cast<std::size_t>(span)].end_ns -
                                   spans_[static_cast<std::size_t>(span)].start_ns);
    }
    // Per span: its duration minus the time its direct children cover.
    [[nodiscard]] std::vector<double> self_ns() const;
    // Self time summed per span name.
    [[nodiscard]] std::map<std::string, double> self_ns_by_name() const;
    // One JSON object per span, with its self time (a warning on stderr
    // when the file cannot be written).
    void write_jsonl(const std::string& path) const;

private:
    [[nodiscard]] std::int64_t now_ns() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

// Share of the untraced time by which the layer spans may miss it beyond
// the tracing overhead (clock reads and span bookkeeping at the roots).
inline constexpr double kAccountingSlack = 0.01;

// Reports how the traced run accounts for the untraced one, per operation
// (an operation is a span named `root` with its descendants): the untraced
// and traced end-to-end times, their difference (the tracing overhead), the
// layer sum (the self times of every span under a root) and the roots' own
// self time, which no layer span covers. The layers account for the
// untraced time when |layer sum - untraced| <= |overhead| + kAccountingSlack
// x untraced; a run where they do not records a failure.
void fill_trace_accounting(Result& result, double untraced_op_ms,
                           double traced_op_ms, const Tracer& tracer,
                           const std::string& root);

}  // namespace perfbench
