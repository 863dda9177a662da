// Sharded parallel simulation: conservative time-windowed barriers.
//
// A ShardGroup binds N sim::Simulator instances ("shards") into one logical
// simulation that can drain its event streams on multiple worker threads
// while staying *byte-identical* at every worker count.  Every
// cluster::Cluster runs on one.  Its sharded layout: shard 0 owns the
// client/MPI ranks, the metadata server, and all client-side NICs; shard
// 1 + i / G owns data server i's HDD/SSD/scheduler/cache event stream (G
// servers per shard).  The network layer is the only cross-shard boundary,
// which is what makes conservative lookahead available: no message crosses
// shards faster than the minimum wire latency.  Its one-shard layout puts
// every component on shard 0.
//
// A lone shard has no cross-shard edge, so the constructor leaves it
// ungrouped (its group() is nullptr): it runs the Simulator's own loops,
// which check a run_while_pending predicate after every event.  Model code
// that must know whether other shards exist keys on `sim.group() ==
// nullptr`.
//
// Execution model (classic conservative windowing, specialized for a
// fixed-topology star):
//
//   W      = lookahead = minimum cross-shard delivery latency (> 0)
//   loop:
//     M    = min over shards of next pending event time
//     end  = M + W
//     each shard drains its local events with time < `end`, independently,
//       on its assigned worker thread (no cross-shard reads or writes);
//     barrier: buffered cross-shard posts are merged and scheduled.
//
// Why this is safe: a cross-shard post made at local time t arrives at
// t + W.  During the window, t >= M, so every arrival lands at
// t + W >= M + W = end — never inside the window being drained.  Posts are
// buffered in per-source-shard FIFO outboxes and merged at the barrier in
// (arrival time, source shard, send order) order — realized as a stable
// sort by arrival time over the outboxes concatenated in shard order — then
// scheduled on the target shard, which assigns fresh local sequence numbers
// in exactly that order.  The merge is single-threaded and the drain order
// inside each shard is its own (when, seq) heap order, so the entire
// schedule is a pure function of the initial events: changing the worker
// count changes *which thread* drains a shard, never *what* it executes.
// `ibridge-simcheck --shards 1/2/4` digests prove this end to end.
//
// The window boundary is half-open: an event exactly at `end` belongs to
// the next window (Simulator::drain_window uses a strict bound).  A
// lookahead of zero would admit same-instant cross-shard cycles, so the
// constructor rejects it.
//
// Every window has the same end for every shard.  A per-shard bound of
// `min over s != d of (T_s + W)` looks safe but is not: a post from d can
// reach an idle shard at T_d + W, and that shard's reply can be back at
// T_d + 2W, inside a window d drained past it.  Wider windows have to come
// from lookahead the model guarantees (e.g. a server's minimum service
// time), not from the window rule.
//
// Shard *groups* (cluster::Cluster maps many data servers onto one shard)
// need no support here beyond what post()/hop() already provide: shards are
// anonymous event streams, and grouping only changes how many of them exist.
//
// Driver-phase use (setup/teardown code between run_all calls) runs on the
// caller's thread with no window active; post() then delivers directly onto
// the target shard's queue, still deterministically.
#pragma once

#include <cassert>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/inline_event.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace ibridge::sim {

class ShardGroup {
 public:
  /// `shards` logical shards (>= 1), drained by `workers` threads
  /// (clamped to [1, shards]; the calling thread is worker 0, so
  /// `workers - 1` pool threads are spawned).  `lookahead` must be
  /// positive — throws std::invalid_argument otherwise.  The worker count
  /// affects wall-clock speed only, never the schedule.  With one shard,
  /// shard(0).group() is nullptr (see the header comment).
  ShardGroup(int shards, SimTime lookahead, int workers);
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  int shards() const { return static_cast<int>(sims_.size()); }
  int workers() const { return workers_; }
  SimTime lookahead() const { return lookahead_; }

  /// Install a hook invoked single-threaded at every barrier, passing the
  /// horizon time T: every event strictly before T has executed on every
  /// shard and no worker is running, so the hook may read cross-shard state
  /// coherently.  T is worker-count invariant, which keeps anything derived
  /// from it (e.g. the cluster metrics sampler) deterministic.  Pass nullptr
  /// to uninstall.  Driver phase only.
  void set_barrier_hook(std::function<void(SimTime)> hook);

  Simulator& shard(int i) { return sims_[static_cast<std::size_t>(i)]; }
  const Simulator& shard(int i) const {
    return sims_[static_cast<std::size_t>(i)];
  }

  /// Cross-shard send: run `fn` on `to`'s shard at absolute time `when`.
  /// `from` must be the shard the caller is currently executing on.  Inside
  /// a window the post is buffered in `from`'s outbox and merged at the
  /// barrier; `when` must respect the lookahead (when >= from.now() +
  /// lookahead), else std::logic_error is thrown in every build.  On a pool
  /// worker that throw terminates the process; on the calling thread it
  /// propagates out of the run_all family and leaves the group unusable.
  /// Outside a window the post is scheduled directly (clamped to `to`'s
  /// clock, which driver-phase code may not have advanced).
  void post(Simulator& from, Simulator& to, SimTime when, InlineEvent fn);

  /// Run windows until every shard's queue drains, then advance all shard
  /// clocks to the global maximum (so driver-phase code sees one time).
  void run_all();

  /// Run windows until no pending event is <= `deadline`, then advance all
  /// shard clocks to `deadline`.  Mirrors Simulator::run_until.
  void run_all_until(SimTime deadline);

  /// Run windows until `done()` returns true (checked at each barrier — the
  /// only points where cross-shard state is coherent) or the group drains.
  /// Returns true iff the predicate was satisfied.  The predicate runs on
  /// the calling thread; state it reads must be written on shard 0, which
  /// the calling thread itself drains.
  bool run_all_while_pending(const std::function<bool()>& done);

  /// Group-wide totals; all are invariant under the worker count.
  std::uint64_t events_executed() const;
  bool all_empty() const;
  std::size_t total_pending() const;

  /// Barrier statistics (also worker-count invariant).
  std::uint64_t windows_run() const { return windows_; }
  std::uint64_t posts_delivered() const { return posts_; }

 private:
  struct PostRec {
    SimTime when;
    std::uint32_t dst;
    InlineEvent fn;
  };

  /// Earliest pending event across shards (SimTime::max() when drained).
  SimTime next_time() const;
  /// Latest shard clock.
  SimTime latest_now() const;
  /// The window loop behind the run_all family: while the earliest pending
  /// event M is before `stop`, drain every shard to min(M + W, stop), then
  /// merge posts.  Returns true as soon as `done` (if set) holds at a
  /// barrier.
  bool run_windows(SimTime stop, const std::function<bool()>& done);
  /// Drain every shard's events strictly before `end_`, in parallel.
  void run_window();
  /// Barrier merge: move buffered posts onto their target shards in
  /// (when, src shard, send order) order.  Single-threaded.
  void deliver();
  /// Advance every shard clock that is behind `t` (queues must have no
  /// event before `t`).
  void sync_clocks(SimTime t);
  void worker_loop(int w);

  std::deque<Simulator> sims_;  // deque: stable addresses, non-movable elems
  SimTime lookahead_;
  int workers_;
  SimTime end_ = SimTime::zero();  ///< end of the window being drained
  std::function<void(SimTime)> barrier_hook_;

  // Outboxes are written lock-free during a window: outbox_[s] is touched
  // only by the worker draining shard s.  The barrier (and the pool's mutex
  // handshake) orders those writes before the merge reads them.
  std::vector<std::vector<PostRec>> outbox_;  ///< per-source-shard FIFOs
  std::vector<PostRec> scratch_;              ///< barrier merge buffer

  bool running_ = false;  ///< a window is being drained (set under mu_)
  std::uint64_t windows_ = 0;
  std::uint64_t posts_ = 0;

  // Worker pool (exp::Runner-style mutex + condvar handshake).  Worker w
  // drains shards {s : s % workers_ == w}; worker 0 is the calling thread,
  // so shard 0 — and any predicate/driver state living there — is always
  // drained by the caller itself.  Workers read the window end from `end_`,
  // which the caller sets before bumping the epoch under mu_.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  int active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Awaitable that moves the running coroutine from `from`'s simulator to
/// `to`'s, arriving one lookahead later.  A no-op (no suspension, no event)
/// when both are the same simulator, grouped or standalone — so code that
/// hops works unchanged on a one-simulator cluster.  Otherwise both must
/// belong to the same ShardGroup.  This is how driver coroutines spawned on
/// shard 0 reach a data server's shard before touching its state or
/// scheduling on its queue.
struct Hop {
  Simulator* from;
  Simulator* to;
  bool await_ready() const noexcept { return from == to; }
  void await_suspend(std::coroutine_handle<> h) {
    ShardGroup* group = from->group();
    assert(group != nullptr && group == to->group() &&
           "hop between simulators of different groups");
    group->post(*from, *to, from->now() + group->lookahead(),
                InlineEvent([h] { h.resume(); }));
  }
  void await_resume() const noexcept {}
};
inline Hop hop(Simulator& from, Simulator& to) { return Hop{&from, &to}; }

}  // namespace ibridge::sim
