#ifndef RLCUT_E2EBENCH_LAYERS_H_
#define RLCUT_E2EBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "partition/plan_delta.h"

namespace e2e {

/// Times one call into a library layer from outside. When an
/// obs::TraceRecorder is installed (the traced run), the interval is
/// also recorded as a span named `name` in category "bench", so the
/// library's own spans inside the call nest under it. With no recorder
/// the cost is two steady_clock reads.
class LayerSpan {
 public:
  explicit LayerSpan(std::string name);
  ~LayerSpan() { Stop(); }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

  /// Ends the span (idempotent) and returns its wall time in seconds.
  double Stop();

 private:
  std::string name_;
  rlcut::obs::TraceRecorder* recorder_;
  std::chrono::steady_clock::time_point start_;
  double start_us_ = 0;
  bool stopped_ = false;
  double seconds_ = 0;
};

/// Runs fn() inside a LayerSpan and adds its wall time to *seconds.
template <typename Fn>
auto TimeCall(const char* name, double* seconds, Fn&& fn) {
  LayerSpan span(name);
  struct Adder {
    LayerSpan* span;
    double* seconds;
    ~Adder() { *seconds += span->Stop(); }
  } adder{&span, seconds};
  return fn();
}

/// Timing decorator over the replica sink the session feeds: times
/// Begin/PushDelta (net.push_s) and Flush (net.flush_s) around the
/// wrapped sink, counts the Begin/PushDelta calls after which the link
/// was degraded (the client returns OK then and keeps a local mirror),
/// and remembers the last delta it forwarded.
class TimedReplicaSink : public rlcut::ReplicaSink {
 public:
  explicit TimedReplicaSink(rlcut::ReplicaSink* inner) : inner_(inner) {}

  rlcut::Status Begin(const rlcut::PlanSnapshot& snapshot) override;
  rlcut::Status PushDelta(const rlcut::PlanDelta& delta) override;
  rlcut::Status Flush() override;
  bool degraded() const override { return inner_->degraded(); }
  uint64_t version() const override { return inner_->version(); }

  double push_seconds() const { return push_seconds_; }
  double flush_seconds() const { return flush_seconds_; }
  uint64_t begins() const { return begins_; }
  uint64_t degraded_calls() const { return degraded_calls_; }
  const rlcut::PlanDelta& last_delta() const { return last_delta_; }

 private:
  void CountDegraded(const rlcut::Status& status);

  rlcut::ReplicaSink* inner_;
  double push_seconds_ = 0;
  double flush_seconds_ = 0;
  uint64_t begins_ = 0;
  uint64_t degraded_calls_ = 0;
  rlcut::PlanDelta last_delta_;
};

/// Total and self time of all spans sharing one name. A span's self time
/// is its duration minus the part covered by its direct children (spans
/// of the same thread nested inside it).
struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<rlcut::obs::TraceEvent>& events);

}  // namespace e2e

#endif  // RLCUT_E2EBENCH_LAYERS_H_
