#include "trace.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
}

int Tracer::begin(std::string name, long long request) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
    open_.push_back(index);
    spans_.back().start_ns = now_ns();
    return index;
}

void Tracer::end(int span) {
    spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::vector<double> Tracer::self_ns() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = duration_ns(static_cast<int>(i));
    // Children of a single-threaded tracer nest inside their parent and do
    // not overlap each other, so subtracting their durations removes
    // exactly the covered part of the parent's interval.
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            self[static_cast<std::size_t>(spans_[i].parent)] -=
                duration_ns(static_cast<int>(i));
    return self;
}

std::map<std::string, double> Tracer::self_ns_by_name() const {
    std::map<std::string, double> out;
    const std::vector<double> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

void Tracer::write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    const std::vector<double> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << ",\"self_ns\":" << static_cast<long long>(self[i])
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << "}\n";
    }
    if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

void fill_trace_accounting(Result& result, double untraced_op_ms,
                           double traced_op_ms, const Tracer& tracer,
                           const std::string& root) {
    const std::vector<Span>& spans = tracer.spans();
    const std::vector<double> self = tracer.self_ns();
    double ops = 0;
    double layer_ns = 0;
    double unattributed_ns = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::size_t top = i;
        while (spans[top].parent >= 0)
            top = static_cast<std::size_t>(spans[top].parent);
        if (spans[top].name != root) continue;
        if (top == i) {
            unattributed_ns += self[i];
            ops += 1;
        } else {
            layer_ns += self[i];
        }
    }
    const double layer_op_ms = ops > 0 ? layer_ns / 1e6 / ops : 0.0;
    const double overhead_op_ms = traced_op_ms - untraced_op_ms;
    auto& m = result.per_layer;
    m["trace.untraced_op_ms"] = {untraced_op_ms, "ms"};
    m["trace.traced_op_ms"] = {traced_op_ms, "ms"};
    m["trace.overhead_op_ms"] = {overhead_op_ms, "ms"};
    m["trace.layer_sum_op_ms"] = {layer_op_ms, "ms"};
    m["trace.unattributed_op_ms"] = {ops > 0 ? unattributed_ns / 1e6 / ops : 0.0, "ms"};
    if (std::abs(layer_op_ms - untraced_op_ms) >
        std::abs(overhead_op_ms) + kAccountingSlack * untraced_op_ms) {
        char why[160];
        std::snprintf(why, sizeof why,
                      "trace accounting: layers sum to %.4g ms of an untraced "
                      "%.4g ms per operation (overhead %.4g ms)",
                      layer_op_ms, untraced_op_ms, overhead_op_ms);
        result.fail(why);
    }
}

}  // namespace perfbench
