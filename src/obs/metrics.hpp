// Unified registry of named counters, gauges, and histograms.
//
// Replaces the ad-hoc per-bench meters: components keep their cheap native
// counters (CacheStats, BlockDevice byte totals, NIC totals) and
// cluster::Cluster::collect_metrics() publishes them all into one registry
// under a uniform naming scheme, which benches print and the time-series
// sampler snapshots to CSV.
//
// Naming scheme (see docs/OBSERVABILITY.md):
//   <subsystem>.<metric>[.<class>]          cluster-wide aggregate
//   srv<N>.<subsystem>.<metric>[.<class>]   per data server
//
// e.g. "cache.read_hits", "srv3.disk.busy_ms", "cache.admit.fragment".
// All storage is ordered (std::map) so iteration, flattening, and CSV output
// are deterministic.
//
// Distributions go through HistogramCell, which dispatches on the registry's
// HistogramPolicy: kExact keeps every sample (stats::Histogram, exact
// percentiles, O(n) memory) and kSketch uses the bounded-memory
// stats::QuantileSketch (guaranteed relative error, exact mergeable).  The
// default policy is kExact; a caller that wants bounded memory switches the
// registry default with set_default_histogram_policy(kSketch) (bench_obs
// and tests do) — see docs/OBSERVABILITY.md "Bounded-memory mode".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "stats/histogram.hpp"
#include "stats/sketch.hpp"

namespace ibridge::obs {

/// A flattened (name, value) view of the registry, for tables and CSV.
using MetricRow = std::pair<std::string, double>;

/// How a flattened row behaves over time — drives TimeSeries backfill
/// semantics (see TimeSeries below).
enum class MetricKind {
  kCounter,  ///< monotonic count; "absent" genuinely means zero
  kGauge,    ///< point-in-time value; "absent" means *unknown*, not zero
};

/// Storage policy for one distribution metric.
enum class HistogramPolicy {
  kExact,   ///< stats::Histogram — every sample kept, exact percentiles
  kSketch,  ///< stats::QuantileSketch — O(1) memory, bounded rel. error
};

/// One distribution metric behind MetricsRegistry::histogram().  Presents
/// the add/merge/percentile surface of stats::Histogram but stores samples
/// according to its policy, fixed at creation.
class HistogramCell {
 public:
  explicit HistogramCell(HistogramPolicy policy = HistogramPolicy::kExact)
      : policy_(policy) {}

  HistogramPolicy policy() const { return policy_; }

  void add(double x) {
    switch (policy_) {
      case HistogramPolicy::kExact:
        exact_.add(x);
        break;
      case HistogramPolicy::kSketch:
        sketch_.add(x);
        break;
    }
  }

  /// Fold a component-side exact histogram into this cell (the
  /// collect_metrics publication path).  Under kExact this is
  /// Histogram::merge; kSketch re-feeds the samples one by one.
  void merge(const stats::Histogram& h) {
    if (policy_ == HistogramPolicy::kExact) {
      exact_.merge(h);
      return;
    }
    for (const double x : h.samples()) add(x);
  }

  std::uint64_t count() const {
    switch (policy_) {
      case HistogramPolicy::kExact:
        return exact_.count();
      case HistogramPolicy::kSketch:
        return sketch_.count();
    }
    return 0;
  }

  double mean() const {
    switch (policy_) {
      case HistogramPolicy::kExact:
        return exact_.mean();
      case HistogramPolicy::kSketch:
        return sketch_.mean();
    }
    return 0.0;
  }

  double min() const {
    switch (policy_) {
      case HistogramPolicy::kExact:
        return exact_.min();
      case HistogramPolicy::kSketch:
        return sketch_.min();
    }
    return 0.0;
  }

  double max() const {
    switch (policy_) {
      case HistogramPolicy::kExact:
        return exact_.max();
      case HistogramPolicy::kSketch:
        return sketch_.max();
    }
    return 0.0;
  }

  double sum() const {
    switch (policy_) {
      case HistogramPolicy::kExact:
        return exact_.sum();
      case HistogramPolicy::kSketch:
        return sketch_.sum();
    }
    return 0.0;
  }

  double percentile(double p) const {
    switch (policy_) {
      case HistogramPolicy::kExact:
        return exact_.percentile(p);
      case HistogramPolicy::kSketch:
        return sketch_.percentile(p);
    }
    return 0.0;
  }

  double median() const { return percentile(50.0); }

  /// Heap bytes this cell holds — O(samples) under kExact, O(1) under kSketch
  /// (bench_obs --check asserts the bound).
  std::size_t memory_bytes() const {
    switch (policy_) {
      case HistogramPolicy::kExact:
        return sizeof(*this) + exact_.count() * sizeof(double);
      case HistogramPolicy::kSketch:
        return sizeof(*this) + sketch_.memory_bytes();
    }
    return sizeof(*this);
  }

  void clear() {
    exact_.clear();
    sketch_.clear();
  }

  /// Typed views; null unless the matching policy is active.
  const stats::Histogram* exact() const {
    return policy_ == HistogramPolicy::kExact ? &exact_ : nullptr;
  }
  const stats::QuantileSketch* sketch() const {
    return policy_ == HistogramPolicy::kSketch ? &sketch_ : nullptr;
  }

 private:
  HistogramPolicy policy_;
  stats::Histogram exact_;
  stats::QuantileSketch sketch_;
};

class MetricsRegistry {
 public:
  /// Monotonic event count; created at zero on first use.
  std::int64_t& counter(const std::string& name) { return counters_[name]; }

  /// Point-in-time value; created at zero on first use.
  double& gauge(const std::string& name) { return gauges_[name]; }

  /// Value distribution with percentiles; created empty on first use under
  /// the registry's default policy.
  HistogramCell& histogram(const std::string& name);

  /// Policy for histograms created after this call; existing cells keep
  /// theirs.
  void set_default_histogram_policy(HistogramPolicy p) {
    default_policy_ = p;
  }

  bool has(const std::string& name) const {
    return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
           histograms_.count(name) != 0;
  }

  const std::map<std::string, std::int64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, HistogramCell>& histograms() const {
    return histograms_;
  }

  /// Every metric as (name, value), sorted by name.  Histograms expand to
  /// .count/.mean/.p50/.p95/.p99/.max rows.  When `kinds` is non-null it is
  /// filled parallel to the result: counters and histogram .count rows are
  /// kCounter, everything else kGauge.
  std::vector<MetricRow> flatten(std::vector<MetricKind>* kinds = nullptr) const;

  /// Total heap bytes held by histogram cells plus a stable fingerprint of
  /// every sketch-backed cell (0 when none) — the bench_obs hooks.
  std::size_t histogram_memory_bytes() const;
  std::uint64_t sketch_digest() const;

  /// Two-column "name,value" CSV of flatten().
  void write_csv(std::ostream& os) const;

  void clear() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramCell> histograms_;
  HistogramPolicy default_policy_ = HistogramPolicy::kExact;
};

/// Periodic snapshots of a metric set: one row per sample time, one column
/// per metric name (union over all samples).
///
/// Missing-cell rule: a row sampled before a column first appeared has no
/// value for it.  Counter columns backfill as 0 (the count genuinely was
/// zero before the subsystem emitted it); gauge columns backfill as an
/// *empty* CSV cell, because a gauge that did not exist yet was unknown —
/// writing 0 would plot false zeros on dashboards.
/// cluster::Cluster::start_metrics_sampler() feeds one of these on a
/// configurable sim-time cadence.
class TimeSeries {
 public:
  /// Append one sample row at `when` from the registry's flattened view.
  void sample(sim::SimTime when, const MetricsRegistry& reg);

  std::size_t rows() const { return samples_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<MetricKind>& column_kinds() const { return kinds_; }

  /// "time_ms,<col>,<col>,..." CSV of all samples (see missing-cell rule
  /// above).
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> columns_;
  std::vector<MetricKind> kinds_;
  std::map<std::string, std::size_t> column_index_;
  std::vector<std::pair<sim::SimTime, std::vector<double>>> samples_;
};

}  // namespace ibridge::obs
