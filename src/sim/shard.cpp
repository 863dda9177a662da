#include "sim/shard.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace ibridge::sim {

ShardGroup::ShardGroup(int shards, SimTime lookahead, int workers)
    : lookahead_(lookahead) {
  if (shards < 1) {
    throw std::invalid_argument("ShardGroup: shards must be >= 1");
  }
  if (lookahead <= SimTime::zero()) {
    // A zero-latency cross-shard edge would let a message land inside the
    // window that sent it; the conservative argument needs W > 0.
    throw std::invalid_argument("ShardGroup: lookahead must be positive");
  }
  workers_ = workers < 1 ? 1 : (workers > shards ? shards : workers);
  outbox_.resize(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    Simulator& s = sims_.emplace_back();
    // A lone shard has no cross-shard edge, so it stays ungrouped: its
    // run() family is the Simulator's own loop, which checks a
    // run_while_pending predicate after every event.
    if (shards > 1) s.group_ = this;
    s.shard_id_ = static_cast<std::uint32_t>(i);
  }
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ShardGroup::~ShardGroup() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardGroup::post(Simulator& from, Simulator& to, SimTime when,
                      InlineEvent fn) {
  assert(from.group_ == this && to.group_ == this);
  if (running_) {
    // Always on, not an assert: a post inside the horizon would land in a
    // window the target may already have drained, and the release builds
    // that run the sharded fuzz would miss it.  One compare per post.
    if (when < from.now() + lookahead_) {
      throw std::logic_error(
          "ShardGroup::post: cross-shard post inside the lookahead horizon");
    }
    outbox_[from.shard_id_].push_back(
        PostRec{when, to.shard_id_, std::move(fn)});
    return;
  }
  // Driver phase: single-threaded, deliver directly.  Shard clocks are
  // synchronized after run_all/run_all_until, but clamp defensively.
  to.schedule_at(when < to.now() ? to.now() : when, std::move(fn));
}

SimTime ShardGroup::next_time() const {
  SimTime m = SimTime::max();
  for (const Simulator& s : sims_) {
    const SimTime t = s.next_event_time();
    if (t < m) m = t;
  }
  return m;
}

void ShardGroup::set_barrier_hook(std::function<void(SimTime)> hook) {
  assert(!running_ && "set_barrier_hook is driver-phase only");
  barrier_hook_ = std::move(hook);
}

void ShardGroup::run_window() {
  if (workers_ == 1) {
    // Same code path semantically as the threaded branch: running_ must be
    // true so posts buffer into outboxes and merge at the barrier — that is
    // what keeps one worker byte-identical to many.
    running_ = true;
    for (Simulator& s : sims_) s.drain_window(end_);
    running_ = false;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = true;
    active_ = workers_ - 1;
    ++epoch_;
  }
  cv_work_.notify_all();
  const int n = shards();
  for (int s = 0; s < n; s += workers_) {
    const std::size_t i = static_cast<std::size_t>(s);
    sims_[i].drain_window(end_);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return active_ == 0; });
    running_ = false;
  }
}

void ShardGroup::worker_loop(int w) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this, seen] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
    }
    const int n = shards();
    for (int s = w; s < n; s += workers_) {
      const std::size_t i = static_cast<std::size_t>(s);
      sims_[i].drain_window(end_);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    cv_done_.notify_one();
  }
}

void ShardGroup::deliver() {
  scratch_.clear();
  for (std::vector<PostRec>& box : outbox_) {
    for (PostRec& r : box) scratch_.push_back(std::move(r));
    box.clear();
  }
  if (scratch_.empty()) return;
  // Stable sort by arrival time over the source-shard-ordered concatenation
  // realizes the (when, src shard, send order) merge; the target shard then
  // assigns fresh (monotone) sequence numbers in exactly this order, fixing
  // the same-tick cross-shard tie-break independent of worker count.
  std::stable_sort(
      scratch_.begin(), scratch_.end(),
      [](const PostRec& a, const PostRec& b) { return a.when < b.when; });
  for (PostRec& r : scratch_) {
    Simulator& dst = sims_[r.dst];
    assert(r.when >= dst.now() && "post arrived inside a drained window");
    dst.schedule_at(r.when, std::move(r.fn));
    ++posts_;
  }
  scratch_.clear();
}

void ShardGroup::sync_clocks(SimTime t) {
  for (Simulator& s : sims_) s.advance_to(t);
}

SimTime ShardGroup::latest_now() const {
  SimTime latest = SimTime::zero();
  for (const Simulator& s : sims_) {
    if (s.now() > latest) latest = s.now();
  }
  return latest;
}

bool ShardGroup::run_windows(SimTime stop, const std::function<bool()>& done) {
  for (;;) {
    const SimTime m = next_time();
    if (m >= stop) return false;
    // At this point every event strictly before `m` has executed on every
    // shard and no worker is running: the coherent horizon for the hook.
    if (barrier_hook_) barrier_hook_(m);
    // A post made at t >= m arrives at >= m + W, so no shard can receive
    // one before this end.
    end_ = std::min(m + lookahead_, stop);
    run_window();
    deliver();
    ++windows_;
    if (done && done()) return true;
  }
}

void ShardGroup::run_all() {
  run_windows(SimTime::max(), nullptr);
  sync_clocks(latest_now());
}

void ShardGroup::run_all_until(SimTime deadline) {
  // Inclusive bound: Simulator::run_until executes events at exactly
  // `deadline`, so the strict window bound must sit one tick past it.
  const SimTime stop = deadline == SimTime::max()
                           ? deadline
                           : deadline + SimTime::nanos(1);
  run_windows(stop, nullptr);
  sync_clocks(deadline);
}

bool ShardGroup::run_all_while_pending(const std::function<bool()>& done) {
  if (done() || run_windows(SimTime::max(), done)) return true;
  sync_clocks(latest_now());
  return done();
}

std::uint64_t ShardGroup::events_executed() const {
  std::uint64_t total = 0;
  for (const Simulator& s : sims_) total += s.executed_;
  return total;
}

bool ShardGroup::all_empty() const {
  for (const Simulator& s : sims_) {
    if (!s.keys_.empty()) return false;
  }
  return true;
}

std::size_t ShardGroup::total_pending() const {
  std::size_t total = 0;
  for (const Simulator& s : sims_) total += s.keys_.size();
  return total;
}

// ---- Simulator group-delegation bodies (ShardGroup is incomplete in
// simulator.hpp, so these live here) ----

void Simulator::group_run() { group_->run_all(); }
void Simulator::group_run_until(SimTime deadline) {
  group_->run_all_until(deadline);
}
bool Simulator::group_run_while_pending(const std::function<bool()>& done) {
  return group_->run_all_while_pending(done);
}
std::uint64_t Simulator::group_events_executed() const {
  return group_->events_executed();
}
bool Simulator::group_empty() const { return group_->all_empty(); }
std::size_t Simulator::group_pending() const {
  return group_->total_pending();
}

}  // namespace ibridge::sim
