// Span-based request tracing for the iBridge simulator.
//
// The paper's central observation is that a synchronous parallel request
// completes only when its *slowest* sub-request does (the striping
// magnification effect, Fig. 3).  A TraceSession records where each request
// spent its simulated time as a tree of spans — client setup, sub-request
// fan-out, network transfer, server queueing, cache/disk service, background
// staging and write-back — linked by a RequestId threaded from pvfs::Client
// down through core::IBridgeCache.
//
// Determinism and cost:
//   * Timestamps are sim::SimTime only; ids are assigned in event order, so
//     a traced run is exactly as deterministic as an untraced one.
//   * Every instrumentation point is guarded by a null-session-pointer test
//     (the CacheObserver pattern): with tracing off, the per-request cost is
//     a handful of predictable branches and the simulated timeline is
//     byte-identical.
//
// Recording modes:
//   * Full (default): every span is appended and kept; ids index `spans()`
//     directly.  Memory grows O(requests) — fine for figure-sized runs.
//   * Flight recorder (`enable_flight_recorder`): fixed-capacity tail
//     sampling so tracing can stay on at any scale.  Only the N slowest
//     requests' complete span trees plus a deterministic 1-in-K sample (by
//     request id) are retained; everything else is discarded when its
//     request commits.  Background spans (request 0: device dispatches,
//     write-back, staging) go to a bounded ring with oldest-half
//     compaction, as do counter samples.  Retention decisions depend only
//     on simulated time and request ids, so a flight-recorded run keeps the
//     byte-identical timeline guarantee and retains the *same* requests on
//     every run.  Exporters consume either mode through `export_spans()`.
//
// Tracks: each span lives on a track — a (process, thread) name pair that
// maps onto the pid/tid grid of the Chrome trace-event format (see
// obs/export.hpp).  Spans on one track may overlap (concurrent sub-requests,
// multi-channel SSD dispatches); the exporter assigns overlapping span trees
// to separate lanes so Perfetto renders every slice.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace ibridge::sim {
class Simulator;
}

namespace ibridge::obs {

/// Identifies one span within a session.  0 is "no span".
using SpanId = std::uint64_t;
/// Links every span of one client request.  0 is "no request".
using RequestId = std::uint64_t;
/// Index into the session's track table.  -1 is "no track".
using TrackId = int;
inline constexpr TrackId kNoTrack = -1;

/// A key/value annotation on a span.  Keys are static string literals;
/// values are either integers or owned strings.
struct SpanArg {
  const char* key = "";
  std::int64_t ival = 0;
  std::string sval;
  bool is_int = true;
};

/// One recorded span.  `name`/`category` must be string literals (they are
/// stored unowned; every call site passes constants).
struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;       ///< enclosing span (same request), 0 for roots
  RequestId request = 0;   ///< owning client request, 0 for background work
  TrackId track = kNoTrack;
  const char* name = "";
  const char* category = "";
  sim::SimTime start;
  sim::SimTime finish;
  bool open = true;        ///< end() not called yet
  std::vector<SpanArg> args;
};

/// A (process, thread) display location for spans.
struct Track {
  std::string process;
  std::string thread;
};

/// One sample of a named time-series counter (Chrome "C" event).
struct CounterSample {
  std::string name;
  sim::SimTime when;
  double value = 0.0;
};

/// Retention knobs for flight-recorder mode.
struct FlightConfig {
  std::size_t keep_slowest = 16;        ///< full trees of N slowest requests
  std::uint64_t sample_every = 64;      ///< plus every K-th request by id
  std::size_t sampled_capacity = 256;   ///< FIFO cap on sampled requests
  std::size_t background_capacity = 2048;  ///< background-span ring size
  std::size_t counter_capacity = 4096;     ///< counter-sample ring size
};

/// Collects spans and counter samples for one simulation run.
///
/// Components hold a `TraceSession*` that is null by default; all recording
/// goes through that pointer, so an untraced run never touches this class.
class TraceSession {
 public:
  explicit TraceSession(sim::Simulator& sim) : sim_(sim) {}
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Switch to flight-recorder retention (see file comment).  Must be
  /// called before any span is recorded.
  void enable_flight_recorder(FlightConfig cfg = {});
  bool flight_mode() const { return flight_; }

  /// Allocate the id that links all spans of one client request.
  RequestId new_request() { return ++last_request_; }

  /// Intern a track; repeated calls with the same names return the same id.
  TrackId track(const std::string& process, const std::string& thread);

  /// Open a span starting now.  `name` and `cat` must be string literals.
  SpanId begin(TrackId track, const char* name, const char* cat,
               RequestId request = 0, SpanId parent = 0);

  /// Open a span nested in `parent` (same track and request).
  SpanId child(SpanId parent, const char* name, const char* cat);

  /// Close a span at the current simulated time.  Safe to call with 0.
  /// In flight mode, closing a request's first span commits the request:
  /// its tree is retained (slowest-N / sampled) or discarded.
  void end(SpanId id);

  /// Record an already-finished span (device dispatches know their service
  /// time up front).
  SpanId complete(TrackId track, const char* name, const char* cat,
                  sim::SimTime start, sim::SimTime duration,
                  RequestId request = 0);

  /// Attach an argument to an open or completed span.  In flight mode args
  /// reach spans still in the working set (open spans, recently closed
  /// background spans); later calls are dropped.
  void arg(SpanId id, const char* key, std::int64_t value);
  void arg(SpanId id, const char* key, std::string value);

  /// Record one time-series counter sample at the current simulated time.
  void counter(const std::string& name, double value);

  /// Full-mode span store (empty in flight mode — use export_spans()).
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<Track>& tracks() const { return tracks_; }
  const std::vector<CounterSample>& counters() const { return counters_; }
  std::uint64_t requests_traced() const { return last_request_; }
  const sim::Simulator& simulator() const { return sim_; }

  /// Total spans ever recorded (both modes — flight mode keeps fewer).
  std::uint64_t spans_recorded() const { return next_id_; }

  /// Flight mode: requests whose full trees are currently retained, and
  /// their ids (slowest-N plus the 1-in-K sample), ascending.
  std::size_t requests_retained() const { return retained_.size(); }
  std::vector<RequestId> retained_request_ids() const;

  /// The record for `id`; id must be a live span id from this session.
  /// Full mode only (flight mode discards; see export_spans()).
  const SpanRecord& span(SpanId id) const { return spans_[id - 1]; }

  /// A dense, export-ready view of every span the session still holds, in
  /// either mode.  Ids are renumbered 1..size() in recording order with
  /// parents remapped (parent 0 when the parent was not retained), so
  /// exporters can index `all()[id - 1]` exactly as in full mode.  Full
  /// mode aliases the span store with zero copies.
  class SpanView {
   public:
    const std::vector<SpanRecord>& all() const {
      return alias_ != nullptr ? *alias_ : owned_;
    }
    const SpanRecord& span(SpanId id) const { return all()[id - 1]; }

   private:
    friend class TraceSession;
    const std::vector<SpanRecord>* alias_ = nullptr;
    std::vector<SpanRecord> owned_;
  };
  SpanView export_spans() const;

 private:
  /// Flight mode: one retained request's full span tree.
  struct Retained {
    std::vector<SpanRecord> spans;  ///< ascending original id
    bool slow = false;              ///< currently in the slowest-N set
    bool sampled = false;           ///< kept by the 1-in-K sample
  };
  /// Flight mode: a not-yet-committed request.
  struct Pending {
    SpanId root = 0;             ///< first span recorded for the request
    std::vector<SpanId> ids;     ///< every span of the request, ascending
  };

  SpanRecord& mutable_span(SpanId id) { return spans_[id - 1]; }
  SpanRecord* find_live(SpanId id);
  void commit_request(RequestId request, sim::SimTime duration);
  void drop_retained_if_unreferenced(RequestId request);
  void retire_background(SpanId id);

  sim::Simulator& sim_;
  std::vector<SpanRecord> spans_;      // full mode; index = id - 1
  std::vector<Track> tracks_;
  std::map<std::pair<std::string, std::string>, TrackId> track_index_;
  std::vector<CounterSample> counters_;
  RequestId last_request_ = 0;
  SpanId next_id_ = 0;

  // --- flight-recorder state (unused in full mode) ---
  bool flight_ = false;
  FlightConfig flight_cfg_;
  std::map<SpanId, SpanRecord> live_;      ///< working set (see file comment)
  std::map<RequestId, Pending> pending_;   ///< uncommitted requests
  std::map<RequestId, Retained> retained_;
  /// (duration ns, request) of the current slowest-N, min first.
  std::set<std::pair<std::int64_t, RequestId>> slow_index_;
  std::vector<RequestId> sampled_fifo_;    ///< oldest first
  std::vector<SpanId> bg_linger_;          ///< closed background spans, FIFO
  std::vector<SpanRecord> background_;     ///< background ring, oldest first
  /// Closed background spans linger in live_ this long so immediately
  /// following arg() calls still land (the device-dispatch pattern).
  static constexpr std::size_t kBackgroundLinger = 64;
};

}  // namespace ibridge::obs
