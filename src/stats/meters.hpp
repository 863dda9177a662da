// Per-request service-time meter (DataServer::service_meter()).
#pragma once

#include "sim/time.hpp"
#include "stats/histogram.hpp"
#include "stats/sketch.hpp"

namespace ibridge::stats {

/// Per-request service-time accumulator (Table III replay metric).  Tail
/// latencies come from a bounded QuantileSketch, so per-server p50/p99 are
/// always on at O(1) memory per server regardless of request count.
class ServiceTimeMeter {
 public:
  // The meter sits on the serve path of every request, so its sketch takes
  // the worst-case preallocation: a new latency magnitude discovered mid-run
  // must not reallocate the bucket vector (the zero-allocs-per-request
  // steady-state gate counts that as serve-path churn).
  ServiceTimeMeter() { sketch_.reserve_full(); }

  void add(sim::SimTime t) {
    const double ms = t.to_millis();
    ms_.add(ms);
    sketch_.add(ms);
  }
  double mean_ms() const { return ms_.mean(); }
  double p50_ms() const { return sketch_.percentile(50.0); }
  double p99_ms() const { return sketch_.percentile(99.0); }
  std::uint64_t count() const { return ms_.count(); }
  const Summary& summary() const { return ms_; }
  const QuantileSketch& sketch() const { return sketch_; }

 private:
  Summary ms_;
  QuantileSketch sketch_;
};

}  // namespace ibridge::stats
