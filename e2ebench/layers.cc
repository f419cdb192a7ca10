#include "layers.h"

#include <algorithm>
#include <utility>

namespace e2e {

LayerSpan::LayerSpan(std::string name)
    : name_(std::move(name)),
      recorder_(rlcut::obs::GetTraceRecorder()),
      start_(std::chrono::steady_clock::now()) {
  if (recorder_ != nullptr) start_us_ = recorder_->NowMicros();
}

double LayerSpan::Stop() {
  if (stopped_) return seconds_;
  stopped_ = true;
  seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_)
                 .count();
  if (recorder_ != nullptr) {
    rlcut::obs::TraceEvent event;
    event.name = name_;
    event.category = "bench";
    event.start_us = start_us_;
    event.duration_us = recorder_->NowMicros() - start_us_;
    event.tid = rlcut::obs::CurrentTraceTid();
    recorder_->Record(std::move(event));
  }
  return seconds_;
}

void TimedReplicaSink::CountDegraded(const rlcut::Status& status) {
  if (!status.ok() || inner_->degraded()) ++degraded_calls_;
}

rlcut::Status TimedReplicaSink::Begin(const rlcut::PlanSnapshot& snapshot) {
  ++begins_;
  rlcut::Status status = TimeCall("net/push", &push_seconds_,
                                  [&] { return inner_->Begin(snapshot); });
  CountDegraded(status);
  return status;
}

rlcut::Status TimedReplicaSink::PushDelta(const rlcut::PlanDelta& delta) {
  rlcut::Status status = TimeCall("net/push", &push_seconds_,
                                  [&] { return inner_->PushDelta(delta); });
  CountDegraded(status);
  if (status.ok()) last_delta_ = delta;
  return status;
}

rlcut::Status TimedReplicaSink::Flush() {
  return TimeCall("net/flush", &flush_seconds_,
                  [&] { return inner_->Flush(); });
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<rlcut::obs::TraceEvent>& events) {
  // Spans of one thread nest properly, so a start-ordered sweep with a
  // stack of open spans finds each span's direct parent.
  std::vector<const rlcut::obs::TraceEvent*> order;
  order.reserve(events.size());
  for (const rlcut::obs::TraceEvent& e : events) order.push_back(&e);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->start_us != b->start_us) return a->start_us < b->start_us;
    return a->duration_us > b->duration_us;  // parents before children
  });
  std::vector<double> child_us(order.size(), 0.0);
  std::vector<size_t> open;
  constexpr double kSlackUs = 1e-3;
  for (size_t i = 0; i < order.size(); ++i) {
    const rlcut::obs::TraceEvent& e = *order[i];
    while (!open.empty()) {
      const rlcut::obs::TraceEvent& top = *order[open.back()];
      const bool same_thread = top.tid == e.tid;
      const bool inside = e.start_us + e.duration_us <=
                          top.start_us + top.duration_us + kSlackUs;
      if (same_thread && inside) break;
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += e.duration_us;
    open.push_back(i);
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < order.size(); ++i) {
    SpanTotals& t = totals[order[i]->name];
    ++t.count;
    t.total_s += order[i]->duration_us * 1e-6;
    t.self_s += std::max(0.0, order[i]->duration_us - child_us[i]) * 1e-6;
  }
  return totals;
}

}  // namespace e2e
