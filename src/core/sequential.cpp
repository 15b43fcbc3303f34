#include "djstar/core/sequential.hpp"

#include "djstar/core/detail/span_sink.hpp"
#include "djstar/core/detail/unit_run.hpp"

namespace djstar::core {

SequentialExecutor::SequentialExecutor(CompiledGraph& graph, ExecOptions opts)
    : graph_(graph), opts_(opts) {}

void SequentialExecutor::run_cycle() {
  // The walk itself needs no dependency counters, but begin_cycle()
  // also advances the fault-injection cycle index and clears the
  // previous cycle's fault/cancel state — required for the sequential
  // fallback to recover after a faulted cycle.
  graph_.begin_cycle();
  const detail::SpanSink emit(opts_, 0);
  const bool tracing = emit.tracing();
  const auto t0 = support::now();
  for (UnitId u : graph_.unit_order()) {
    detail::run_unit(graph_, u, 0, stats_, tracing, t0, emit);
  }
}

}  // namespace djstar::core
