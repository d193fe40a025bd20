#include "obs/trace.h"

#include <utility>

#include "common/check.h"

namespace hyperm::obs {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::Begin(std::string name) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  const int id = static_cast<int>(spans_.size());
  SpanRecord span;
  span.name = std::move(name);
  span.id = id;
  span.parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  span.depth = static_cast<int32_t>(open_.size());
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;  // dropped at Begin
  HM_CHECK(!open_.empty()) << "End without matching Begin";
  HM_CHECK_EQ(open_.back(), id) << "spans must close in LIFO order";
  open_.pop_back();
  SpanRecord& span = spans_[static_cast<size_t>(id)];
  span.duration_us = NowUs() - span.start_us;
}

void Tracer::Reset() {
  HM_CHECK(open_.empty()) << "Reset with open spans";
  spans_.clear();
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

}  // namespace hyperm::obs
