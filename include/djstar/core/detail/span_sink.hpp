// djstar/core/detail/span_sink.hpp
// Where one worker's spans go for one cycle, shared by every scheduling
// strategy: the armed trace recorder and/or the enabled flight recorder
// of ExecOptions. Spans are only built when tracing() is true, so a
// cycle with both sinks off does no per-node span work.
#pragma once

#include <cstdint>

#include "djstar/core/executor.hpp"

namespace djstar::core::detail {

class SpanSink {
 public:
  SpanSink(const ExecOptions& opts, unsigned worker) noexcept
      : trace_(opts.trace != nullptr && opts.trace->armed() ? opts.trace
                                                            : nullptr),
        flight_(opts.flight != nullptr && opts.flight->enabled()
                    ? opts.flight
                    : nullptr),
        worker_(worker) {}

  bool tracing() const noexcept {
    return trace_ != nullptr || flight_ != nullptr;
  }

  /// Work stealing sets this to the victim of the steal that delivered
  /// the running unit (-1 = local work); its kRun/kFused spans carry it
  /// so the attribution layer can tell migrated work from local work.
  std::int32_t steal_origin = -1;

  void operator()(support::TraceSpan s) const {
    if (steal_origin >= 0 && (s.kind == support::SpanKind::kRun ||
                              s.kind == support::SpanKind::kFused)) {
      s.steal_from = steal_origin;
    }
    if (trace_ != nullptr) trace_->record(worker_, s);
    if (flight_ != nullptr) flight_->record(worker_, s);
  }

 private:
  support::TraceRecorder* trace_;
  support::FlightRecorder* flight_;
  unsigned worker_;
};

}  // namespace djstar::core::detail
