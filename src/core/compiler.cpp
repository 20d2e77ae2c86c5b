#include "core/compiler.h"

#include "core/engine.h"

namespace merlin::core {

const char* to_string(Solver_mode mode) {
    switch (mode) {
        case Solver_mode::full: return "full";
        case Solver_mode::colgen: return "colgen";
    }
    return "?";
}

// One-shot compilation is a degenerate engine run: build the persistent
// engine (which owns all front-end and solver state) and move its published
// compilation out. Callers that keep re-provisioning should hold a
// core::Engine instead and apply deltas.
Compilation compile(const ir::Policy& policy, const topo::Topology& topo,
                    const Compile_options& options) {
    return Engine(policy, topo, options).take();
}

}  // namespace merlin::core
