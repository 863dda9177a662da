// Block-device abstraction shared by the HDD and SSD models.
//
// Addresses are logical block numbers (LBNs) in 512-byte sectors, matching
// the unit blktrace reports and the unit the paper's Equation (1) uses for
// seek-distance computation.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"
#include "stats/blocktrace.hpp"

namespace ibridge::storage {

using stats::IoDirection;

inline constexpr std::int64_t kSectorBytes = stats::kSectorBytes;

/// A single block-level request as submitted to a device queue.
struct BlockRequest {
  IoDirection dir = IoDirection::kRead;
  std::int64_t lbn = 0;      ///< first sector
  std::int64_t sectors = 0;  ///< length in sectors
  int tag = 0;               ///< issuing stream id (for anticipation)

  std::int64_t end() const { return lbn + sectors; }
  std::int64_t bytes() const { return sectors * kSectorBytes; }
};

/// Completion record delivered through the request's future.
struct BlockCompletion {
  sim::SimTime finished;  ///< absolute completion time
  sim::SimTime latency;   ///< finished - submitted (queueing + service)
  sim::SimTime service;   ///< device occupancy of the dispatch that served it
};

/// Common device interface.  submit() enqueues a request and returns a
/// future that resolves when the device completes it.  Devices are owned by
/// exactly one Simulator and are not thread-safe (the DES is single-threaded).
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual sim::SimFuture<BlockCompletion> submit(BlockRequest req) = 0;

  /// True while a dispatch is in flight or requests are queued.
  virtual bool busy() const = 0;
  virtual std::size_t queue_depth() const = 0;

  /// Total sectors addressable.
  virtual std::int64_t capacity_sectors() const = 0;

  stats::BlockTraceRecorder& trace() { return trace_; }
  const stats::BlockTraceRecorder& trace() const { return trace_; }

  /// Cumulative time the device spent serving requests (utilization).
  sim::SimTime busy_time() const { return busy_time_; }
  std::int64_t bytes_read() const { return bytes_read_; }
  std::int64_t bytes_written() const { return bytes_written_; }

  /// Attach a span TraceSession: every dispatch becomes a completed span on
  /// `track` (concurrent SSD channel dispatches overlap; the exporter lanes
  /// them out).  Null detaches.
  void set_span_trace(obs::TraceSession* session, obs::TrackId track) {
    obs_trace_ = session;
    obs_track_ = track;
  }

  /// Attach a SimProfiler: every dispatch marks the running simulator event
  /// with `category` ("disk"/"ssd"), so device service events show up in
  /// the per-subsystem time attribution.  Null detaches.
  void set_profiler(obs::SimProfiler* profiler, int category) {
    profiler_ = profiler;
    prof_cat_ = category;
  }

 protected:
  void account(IoDirection dir, std::int64_t bytes, sim::SimTime service) {
    busy_time_ += service;
    (dir == IoDirection::kRead ? bytes_read_ : bytes_written_) += bytes;
  }

  /// One-stop accounting for a dispatched batch: blktrace entry, byte/busy
  /// totals, and (when attached) a trace span covering the service window.
  void record_dispatch(sim::SimTime now, IoDirection dir, std::int64_t lbn,
                       std::int64_t sectors, sim::SimTime service) {
    const std::int64_t bytes = sectors * kSectorBytes;
    trace_.record(now, dir, lbn, sim::Bytes{bytes}, service);
    account(dir, bytes, service);
    if (profiler_ != nullptr) profiler_->mark(prof_cat_);
    if (obs_trace_ != nullptr) {
      const obs::SpanId s = obs_trace_->complete(
          obs_track_, dir == IoDirection::kRead ? "io.read" : "io.write",
          "device", now, service);
      obs_trace_->arg(s, "lbn", lbn);
      obs_trace_->arg(s, "sectors", sectors);
    }
  }

  stats::BlockTraceRecorder trace_;
  sim::SimTime busy_time_ = sim::SimTime::zero();
  std::int64_t bytes_read_ = 0;
  std::int64_t bytes_written_ = 0;
  obs::TraceSession* obs_trace_ = nullptr;
  obs::TrackId obs_track_ = obs::kNoTrack;
  obs::SimProfiler* profiler_ = nullptr;
  int prof_cat_ = 0;
};

}  // namespace ibridge::storage
