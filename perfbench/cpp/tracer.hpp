// Host-clock spans recorded around the benchmark's own calls into the
// scheduler (AnalyzeCall, Invoke, WaitAll, Gather, MarkHostModified) and
// around each step. Spans stay in memory and are written out, together with
// the simulated command timeline, as Chrome trace-event JSON when the run
// ends. Disabled, a call costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/stats.hpp"

namespace perfbench {

enum class Phase : std::uint8_t { Setup, Measure };

struct Span {
  const char* name = "";
  std::int64_t begin_ns = 0; ///< steady_clock, relative to the tracer origin
  std::int64_t end_ns = 0;
  std::int32_t parent = -1; ///< index of the enclosing span, -1 for none
  std::int32_t epoch = 0;
  std::int32_t step = 0;
  std::uint64_t task = 0; ///< TaskHandle returned by Invoke, 0 otherwise
  Phase phase = Phase::Measure;
  bool streamed = false; ///< the task ran as a streamed multi-pass sweep

  double us() const { return static_cast<double>(end_ns - begin_ns) * 1e-3; }
};

class Tracer {
public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_context(int epoch, int step, Phase phase) {
    epoch_ = epoch;
    step_ = step;
    phase_ = phase;
  }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int open(const char* name);
  void close(int id, std::uint64_t task = 0);

  /// Runs `f` inside a span named `name`. A TaskHandle result becomes the
  /// span's task id. The span is closed on exceptions too.
  template <typename F> auto call(const char* name, F&& f) {
    if (!enabled_) {
      return f();
    }
    struct Guard {
      Tracer& t;
      int id;
      std::uint64_t task = 0;
      ~Guard() { t.close(id, task); }
    } guard{*this, open(name)};
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
    } else {
      auto result = f();
      guard.task = static_cast<std::uint64_t>(result);
      return result;
    }
  }

  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }

private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  bool enabled_ = false;
  std::int32_t epoch_ = 0, step_ = 0;
  Phase phase_ = Phase::Measure;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Writes Chrome trace-event JSON: host spans of epoch `epoch` on one
/// process track, the simulated command timeline on another (one thread
/// track per stream). `metadata` is a JSON object emitted as "otherData".
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::string& workload,
                        const std::vector<Span>& spans, int epoch,
                        const std::vector<sim::TraceEvent>& sim_events,
                        const std::string& metadata);

} // namespace perfbench
