// Cluster interconnect model.
//
// The paper's testbed used dual-rail 4X QDR InfiniBand, which was never the
// bottleneck; the model keeps it that way while still charging per-message
// latency and per-NIC serialization so very large transfers are not free.
// Each endpoint (client node, data server, metadata server) owns a Nic with
// a given bandwidth; a transfer occupies both the source and destination NIC
// for size/bandwidth and completes after an additional propagation latency.
//
// Sharded clusters (sim::ShardGroup) make the network the *only* cross-shard
// edge: client/MDS NICs live on shard 0 and each data server's NIC lives on
// that server's shard.  A cross-shard transfer then times its two
// serialization points where they live — the source NIC on the sending
// shard, the destination NIC on the receiving shard — with the wire latency
// spent crossing shards through the group's lookahead-buffered post path.
// The awaiting coroutine itself rides the transfer: it resumes on the
// destination shard, which is how client sub-requests reach a server's shard
// and how completions return to shard 0 (pvfs::Client is shard-oblivious).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace ibridge::net {

struct NetworkParams {
  double nic_bandwidth = 3.2e9;  ///< bytes/s (4X QDR IB ~= 3.2 GB/s usable)
  double latency_us = 2.0;       ///< one-way propagation + stack latency
  double per_message_us = 1.0;   ///< send/receive CPU overhead

  /// One-way wire cost: the minimum time any transfer spends between its
  /// source and destination NIC reservations.  This is the conservative
  /// lookahead a cluster's sim::ShardGroup derives its barrier window from.
  sim::SimTime wire_latency() const {
    return sim::SimTime::from_seconds((latency_us + per_message_us) / 1e6);
  }
};

/// A serialization point: transfers through a Nic queue behind each other.
class Nic {
 public:
  Nic(sim::Simulator& sim, std::string name, double bandwidth)
      : sim_(sim), name_(std::move(name)), bandwidth_(bandwidth) {}

  /// Reserve the NIC for `bytes` of transfer; returns the time at which the
  /// NIC is done serializing them (back-to-back transfers queue).
  sim::SimTime reserve(std::int64_t bytes) {
    const sim::SimTime start =
        std::max(sim_.now(), free_at_);
    const sim::SimTime dur = sim::SimTime::from_seconds(
        static_cast<double>(bytes) / bandwidth_);
    free_at_ = start + dur;
    bytes_ += bytes;
    return free_at_;
  }

  /// The simulator (= shard) this NIC's state lives on.  Reservations must
  /// only happen from code executing there.
  sim::Simulator& sim() const { return sim_; }

  const std::string& name() const { return name_; }
  std::int64_t bytes_transferred() const { return bytes_; }

 private:
  sim::Simulator& sim_;
  std::string name_;
  double bandwidth_;
  sim::SimTime free_at_ = sim::SimTime::zero();
  std::int64_t bytes_ = 0;
};

/// The fabric: creates NICs and times point-to-point transfers.
class NetworkModel {
 public:
  NetworkModel(sim::Simulator& sim, NetworkParams params = {})
      : sim_(sim), params_(params) {}

  Nic& add_endpoint(std::string name) {
    return add_endpoint(std::move(name), sim_);
  }

  /// Place an endpoint's NIC on a specific shard's simulator (sharded
  /// clusters put each data server's NIC on that server's shard).
  Nic& add_endpoint(std::string name, sim::Simulator& sim) {
    nics_.push_back(
        std::make_unique<Nic>(sim, std::move(name), params_.nic_bandwidth));
    return *nics_.back();
  }

  /// Coroutine: move `bytes` from `src` to `dst`; completes when the last
  /// byte lands.  When `src` and `dst` live on different shards the
  /// coroutine finishes on `dst`'s shard (see CrossShardArrival).
  sim::Task<> transfer(Nic& src, Nic& dst, std::int64_t bytes) {
    if (&src.sim() != &dst.sim()) {
      // The group's lookahead must not exceed the wire latency — otherwise
      // a transfer would arrive inside the window that sent it.
      assert(src.sim().group() != nullptr &&
             src.sim().group()->lookahead() <= params_.wire_latency());
      // Two-phase store-and-forward across the shard boundary.  Phase 1 on
      // the sending shard: occupy the source NIC.  The wire latency is then
      // spent crossing shards (>= the group lookahead, so the arrival lands
      // beyond the current window).  Phase 2 on the receiving shard: occupy
      // the destination NIC, which may still be busy with earlier arrivals.
      const sim::SimTime src_done = src.reserve(bytes);
      co_await CrossShardArrival{&src.sim(), &dst.sim(),
                                 src_done + params_.wire_latency()};
      const sim::SimTime dst_done = dst.reserve(bytes);
      co_await sim::Delay{dst.sim(), dst_done - dst.sim().now()};
      co_return;
    }
    // Same simulator: both NICs' timelines are visible at once,
    // so charge max(src, dst) serialization plus the wire latency.
    sim::Simulator& sim = src.sim();
    const sim::SimTime src_done = src.reserve(bytes);
    const sim::SimTime dst_done = dst.reserve(bytes);
    const sim::SimTime done =
        std::max(src_done, dst_done) + params_.wire_latency();
    co_await sim::Delay{sim, done - sim.now()};
  }

  /// Latency-only control message (request headers, acks).
  sim::Task<> message(Nic& src, Nic& dst) { return transfer(src, dst, 256); }

  const NetworkParams& params() const { return params_; }

 private:
  /// Awaitable that parks the coroutine until `when` and resumes it on
  /// `to`'s shard, via the group's barrier-merged post path.
  struct CrossShardArrival {
    sim::Simulator* from;
    sim::Simulator* to;
    sim::SimTime when;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      from->group()->post(*from, *to, when,
                          sim::InlineEvent([h] { h.resume(); }));
    }
    void await_resume() const noexcept {}
  };

  sim::Simulator& sim_;
  NetworkParams params_;
  std::vector<std::unique_ptr<Nic>> nics_;
};

}  // namespace ibridge::net
