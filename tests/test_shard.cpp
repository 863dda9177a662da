// sim::ShardGroup — the conservative time-windowed parallel core.
//
// Covers the barrier scheduler's edge semantics (an event exactly at a
// window boundary belongs to the next window; same-tick cross-shard
// deliveries tie-break in (source shard, send order); a zero lookahead is
// rejected at construction) and the headline determinism property: the
// schedule a group executes is a pure function of the initial events,
// invariant under the worker count.  A seeded fuzz variant (ctest -L fuzz)
// drives full SimCheck differential cases through the sharded cluster at
// random shard counts and asserts digest equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/differential.hpp"
#include "check/generator.hpp"
#include "fault/schedule.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace ibridge::sim {
namespace {

const SimTime kW = SimTime::micros(10);  // lookahead for the unit scenarios

TEST(ShardGroup, RejectsZeroLookaheadAndZeroShards) {
  // A zero lookahead would admit same-instant cross-shard cycles — the
  // window-safety proof needs W > 0 strictly.
  EXPECT_THROW(ShardGroup(2, SimTime::zero(), 1), std::invalid_argument);
  EXPECT_THROW(ShardGroup(2, SimTime::nanos(-5), 1), std::invalid_argument);
  EXPECT_THROW(ShardGroup(0, kW, 1), std::invalid_argument);
}

TEST(ShardGroup, ClampsWorkerCountToShards) {
  ShardGroup g(3, kW, 16);
  EXPECT_EQ(g.shards(), 3);
  EXPECT_EQ(g.workers(), 3);
  ShardGroup g1(4, kW, 0);
  EXPECT_EQ(g1.workers(), 1);
}

TEST(ShardGroup, StandaloneSimulatorHasNoGroup) {
  Simulator s;
  EXPECT_EQ(s.group(), nullptr);
  EXPECT_EQ(s.shard_id(), 0);
  ShardGroup g(2, kW, 1);
  EXPECT_EQ(g.shard(1).group(), &g);
  EXPECT_EQ(g.shard(1).shard_id(), 1);
  // A lone shard has no cross-shard edge, so it stays ungrouped.
  ShardGroup g1(1, kW, 1);
  EXPECT_EQ(g1.shard(0).group(), nullptr);
}

// An ungrouped lone shard runs the Simulator's own loop: the predicate is
// checked after every event, not once per W-wide window (which would run
// all three events here).
TEST(ShardGroup, LoneShardChecksPredicatePerEvent) {
  ShardGroup g(1, kW, 1);
  Simulator& s = g.shard(0);
  int n = 0;
  for (int t = 1; t <= 3; ++t) {
    s.schedule_at(SimTime::nanos(t), InlineEvent([&] { ++n; }));
  }
  EXPECT_TRUE(s.run_while_pending([&] { return n == 1; }));
  EXPECT_EQ(n, 1);
  EXPECT_EQ(s.now(), SimTime::nanos(1));
}

// An event scheduled exactly at a window's end must NOT run inside that
// window: the first window is [0, W), and a cross-shard arrival lands
// exactly at W — on the boundary.  A pre-scheduled local event at W has a
// lower sequence number than the barrier-delivered post, so it must run
// first; if the window bound were `<=` instead of `<`, the local event
// would instead run a whole window early, before the post even existed.
TEST(ShardGroup, EventExactlyAtWindowBoundaryRunsInNextWindow) {
  ShardGroup g(2, kW, 1);
  std::vector<std::pair<int, std::int64_t>> order;  // (id, ns)

  // Shard 1's local event, pre-scheduled for exactly t = W.
  g.shard(1).schedule_at(kW, InlineEvent([&] {
    order.emplace_back(1, g.shard(1).now().ns());
  }));
  // Shard 0 at t = 0 posts to shard 1 arriving at the minimum t = W.
  g.shard(0).schedule_at(SimTime::zero(), InlineEvent([&] {
    order.emplace_back(0, g.shard(0).now().ns());
    g.post(g.shard(0), g.shard(1), g.shard(0).now() + kW, InlineEvent([&] {
      order.emplace_back(2, g.shard(1).now().ns());
    }));
  }));
  g.run_all();

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], std::make_pair(0, std::int64_t{0}));
  EXPECT_EQ(order[1], std::make_pair(1, kW.ns()));  // local first (lower seq)
  EXPECT_EQ(order[2], std::make_pair(2, kW.ns()));  // then the delivery
  EXPECT_EQ(g.posts_delivered(), 1u);
  EXPECT_GE(g.windows_run(), 2u);  // the boundary event needed window two
}

// Same-tick cross-shard deliveries tie-break in (source shard, send order):
// the barrier concatenates the per-source FIFOs in shard order and
// stable-sorts by arrival time only.
TEST(ShardGroup, SameTickDeliveriesMergeInSourceShardSendOrder) {
  for (int workers : {1, 3}) {
    ShardGroup g(3, kW, workers);
    std::vector<int> order;  // filled on shard 0 only — no data race

    // Both source shards send two posts to shard 0, all arriving at 2W.
    // Shard 2 is armed *earlier* (t=0) than shard 1 (t=W/2) — arrival-time
    // and source-order must win over arming order.
    g.shard(2).schedule_at(SimTime::zero(), InlineEvent([&] {
      Simulator& self = g.shard(2);
      const SimTime at = SimTime::nanos(2 * kW.ns());
      g.post(self, g.shard(0), at, InlineEvent([&] { order.push_back(21); }));
      g.post(self, g.shard(0), at, InlineEvent([&] { order.push_back(22); }));
    }));
    g.shard(1).schedule_at(SimTime::nanos(kW.ns() / 2), InlineEvent([&] {
      Simulator& self = g.shard(1);
      const SimTime at = SimTime::nanos(2 * kW.ns());
      g.post(self, g.shard(0), at, InlineEvent([&] { order.push_back(11); }));
      g.post(self, g.shard(0), at, InlineEvent([&] { order.push_back(12); }));
    }));
    g.run_all();

    const std::vector<int> want{11, 12, 21, 22};
    EXPECT_EQ(order, want) << "workers=" << workers;
    EXPECT_EQ(g.posts_delivered(), 4u);
  }
}

// Driver-phase posts (no window running) deliver directly, clamped to the
// target clock, and still execute on the next run.
TEST(ShardGroup, DriverPhasePostDeliversDirectly) {
  ShardGroup g(2, kW, 1);
  bool ran = false;
  g.post(g.shard(0), g.shard(1), SimTime::zero(),
         InlineEvent([&] { ran = true; }));
  g.run_all();
  EXPECT_TRUE(ran);
}

TEST(ShardGroup, RunAllUntilStopsAtDeadlineAndSyncsClocks) {
  ShardGroup g(3, kW, 1);
  int ran = 0;
  const SimTime deadline = SimTime::micros(50);
  g.shard(1).schedule_at(SimTime::micros(20), InlineEvent([&] { ++ran; }));
  g.shard(2).schedule_at(SimTime::micros(50), InlineEvent([&] { ++ran; }));
  g.shard(2).schedule_at(SimTime::micros(51), InlineEvent([&] { ++ran; }));
  g.run_all_until(deadline);
  EXPECT_EQ(ran, 2);  // the 51us event stays queued (run_until is <=)
  EXPECT_EQ(g.total_pending(), 1u);
  for (int s = 0; s < g.shards(); ++s) {
    EXPECT_EQ(g.shard(s).now(), deadline) << "shard " << s;
  }
  g.run_all();
  EXPECT_EQ(ran, 3);
  EXPECT_TRUE(g.all_empty());
}

TEST(ShardGroup, RunWhilePendingChecksPredicateAtBarriers) {
  ShardGroup g(2, kW, 1);
  bool flag = false;
  int after = 0;
  // Shard 1 sets the flag on shard 0 (cross-shard: the predicate runs on
  // the calling thread and must only read shard-0 state).
  g.shard(1).schedule_at(SimTime::micros(5), InlineEvent([&] {
    g.post(g.shard(1), g.shard(0), g.shard(1).now() + kW,
           InlineEvent([&] { flag = true; }));
  }));
  g.shard(1).schedule_at(SimTime::millis(10), InlineEvent([&] { ++after; }));
  EXPECT_TRUE(g.shard(0).run_while_pending([&] { return flag; }));
  EXPECT_TRUE(flag);
  EXPECT_EQ(after, 0) << "far-future work must not run once satisfied";
  g.run_all();
  EXPECT_EQ(after, 1);
}

// The grouped Simulator's run()-family delegates to the group: driver code
// written against `sim()` works unchanged on a sharded cluster.
TEST(ShardGroup, GroupedSimulatorDelegatesRunFamily) {
  ShardGroup g(2, kW, 1);
  int ran = 0;
  g.shard(1).schedule_at(SimTime::micros(3), InlineEvent([&] { ++ran; }));
  g.shard(0).run();  // drains the *group*, not just shard 0
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(g.shard(0).empty());
  EXPECT_EQ(g.shard(0).events_executed(), g.events_executed());
}

// hop() moves a coroutine between shards, arriving one lookahead later.
TEST(ShardGroup, HopMovesCoroutineAcrossShards) {
  ShardGroup g(2, kW, 1);
  std::vector<std::int64_t> times;
  bool done = false;
  auto t = [](ShardGroup& gr, std::vector<std::int64_t>& ts,
              bool& flag) -> Task<> {
    Simulator& s0 = gr.shard(0);
    Simulator& s1 = gr.shard(1);
    co_await hop(s0, s0);  // no-op: already there
    ts.push_back(s0.now().ns());
    co_await hop(s0, s1);
    ts.push_back(s1.now().ns());
    co_await Delay{s1, SimTime::micros(7)};
    co_await hop(s1, s0);
    ts.push_back(s0.now().ns());
    flag = true;
  }(g, times, done);
  t.start();
  g.shard(0).run_while_pending([&] { return done; });
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 0);
  EXPECT_EQ(times[1], kW.ns());
  EXPECT_EQ(times[2], kW.ns() + SimTime::micros(7).ns() + kW.ns());
}

// On an ungrouped simulator (standalone, or a lone shard) hop(s, s) is the
// same no-op: the coroutine does not suspend and no event is scheduled.
TEST(ShardGroup, HopOnStandaloneSimulatorDoesNotSuspend) {
  Simulator s;
  bool done = false;
  auto t = [](Simulator& sim, bool& flag) -> Task<> {
    co_await hop(sim, sim);
    flag = true;
  }(s, done);
  t.start();
  EXPECT_TRUE(done) << "hop(s, s) suspended the coroutine";
  EXPECT_TRUE(s.empty());
  s.run();
  EXPECT_EQ(s.events_executed(), 0u);
  EXPECT_EQ(s.now(), SimTime::zero());
}

// ------------------------------------------------ worker-count invariance ----

/// A randomized ping-pong mesh: every shard runs `events` chained events,
/// each advancing a shard-local xorshift stream, recording into a
/// shard-local log, and occasionally posting a continuation to a random
/// other shard.  Returns the per-shard logs plus group totals.
struct MeshResult {
  std::vector<std::vector<std::uint64_t>> logs;
  std::uint64_t executed = 0;
  std::uint64_t windows = 0;
  std::uint64_t posts = 0;
  std::vector<std::int64_t> final_ns;
};

MeshResult run_mesh(int shards, int workers, std::uint64_t seed) {
  ShardGroup g(shards, kW, workers);
  MeshResult r;
  r.logs.resize(static_cast<std::size_t>(shards));
  // One RNG stream per shard, touched only by that shard's events: the
  // draw sequence is part of the schedule, so any cross-worker reordering
  // would corrupt it and show up in the logs.
  std::vector<std::uint64_t> rng(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    std::uint64_t st = seed ^ static_cast<std::uint64_t>(s + 1);
    rng[static_cast<std::size_t>(s)] = splitmix64(st);
  }

  // Self-referential event chain: `chain` must outlive the run.
  struct Chain {
    ShardGroup* g;
    MeshResult* r;
    std::vector<std::uint64_t>* rng;
    int shards;
    void fire(int s, int depth) {
      Simulator& self = g->shard(s);
      std::uint64_t& x = (*rng)[static_cast<std::size_t>(s)];
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      r->logs[static_cast<std::size_t>(s)].push_back(
          x ^ static_cast<std::uint64_t>(self.now().ns()));
      if (depth <= 0) return;
      const int dst = static_cast<int>(x % static_cast<std::uint64_t>(shards));
      const SimTime gap = SimTime::nanos(
          static_cast<std::int64_t>(x % 7919) + 1);
      if (dst == s) {
        self.schedule(gap, InlineEvent([this, s, depth] {
          fire(s, depth - 1);
        }));
      } else {
        g->post(self, g->shard(dst), self.now() + g->lookahead() + gap,
                InlineEvent([this, dst, depth] { fire(dst, depth - 1); }));
      }
    }
  };
  Chain chain{&g, &r, &rng, shards};
  for (int s = 0; s < shards; ++s) {
    g.shard(s).schedule_at(SimTime::nanos(s + 1), InlineEvent([&chain, s] {
      chain.fire(s, 40);
    }));
  }
  g.run_all();

  r.executed = g.events_executed();
  r.windows = g.windows_run();
  r.posts = g.posts_delivered();
  for (int s = 0; s < shards; ++s) {
    r.final_ns.push_back(g.shard(s).now().ns());
  }
  return r;
}

TEST(ShardGroup, ScheduleIsInvariantUnderWorkerCount) {
  const MeshResult base = run_mesh(/*shards=*/5, /*workers=*/1, 0xabcdef);
  EXPECT_GT(base.posts, 0u) << "mesh never crossed a shard — weak scenario";
  for (int workers : {2, 3, 5}) {
    const MeshResult par = run_mesh(5, workers, 0xabcdef);
    EXPECT_EQ(par.logs, base.logs) << "workers=" << workers;
    EXPECT_EQ(par.executed, base.executed) << "workers=" << workers;
    EXPECT_EQ(par.windows, base.windows) << "workers=" << workers;
    EXPECT_EQ(par.posts, base.posts) << "workers=" << workers;
    EXPECT_EQ(par.final_ns, base.final_ns) << "workers=" << workers;
  }
}

// ------------------------------------------------------ lookahead rule ----

// A post inside the lookahead horizon could land in a window its target has
// already drained.  post() rejects it in every build, not only where
// asserts are compiled in.
TEST(ShardGroup, PostInsideLookaheadThrows) {
  ShardGroup g(2, kW, 1);
  g.shard(0).schedule_at(SimTime::zero(), InlineEvent([&] {
    g.post(g.shard(0), g.shard(1), SimTime::nanos(kW.ns() - 1),
           InlineEvent([] {}));
  }));
  EXPECT_THROW(g.run_all(), std::logic_error);
}

// Shard 0 posts at t=0 to an idle shard 1, which replies at once, so the
// reply reaches shard 0 at 2W.  Shard 0's own event at 50us must run after
// it: a window end that counts only the other shards' pending events
// misses this round trip and lets shard 0 drain past 2W.
TEST(ShardGroup, RoundTripThroughIdleShardStaysCausal) {
  ShardGroup g(2, kW, 1);
  Simulator& s0 = g.shard(0);
  Simulator& s1 = g.shard(1);
  std::vector<std::int64_t> seen;  // shard 0's clock at each of its events
  s0.schedule_at(SimTime::zero(), InlineEvent([&] {
    seen.push_back(s0.now().ns());
    g.post(s0, s1, s0.now() + kW, InlineEvent([&] {
      g.post(s1, s0, s1.now() + kW,
             InlineEvent([&] { seen.push_back(s0.now().ns()); }));
    }));
  }));
  s0.schedule_at(SimTime::micros(50),
                 InlineEvent([&] { seen.push_back(s0.now().ns()); }));
  g.run_all();
  const std::vector<std::int64_t> want{0, 2 * kW.ns(),
                                       SimTime::micros(50).ns()};
  EXPECT_EQ(seen, want) << "shard 0's clock must be monotone";
  EXPECT_EQ(g.posts_delivered(), 2u);
}

// The barrier hook fires single-threaded between windows with the horizon
// m: every event strictly before m has executed, none at or after m has.
TEST(ShardGroup, BarrierHookObservesCoherentHorizon) {
  for (int workers : {1, 2}) {
    ShardGroup g(2, kW, workers);
    std::int64_t executed_max[2] = {-1, -1};
    for (int s = 0; s < 2; ++s) {
      for (int k = 1; k <= 20; ++k) {
        g.shard(s).schedule_at(SimTime::micros(3 * k),
                               InlineEvent([&executed_max, s, k] {
                                 executed_max[s] = SimTime::micros(3 * k).ns();
                               }));
      }
    }
    std::size_t calls = 0;
    std::int64_t last_horizon = -1;
    g.set_barrier_hook([&](SimTime horizon) {
      ++calls;
      // Horizons only move forward, and every executed event is < m: the
      // hook always observes a coherent cross-shard prefix of the schedule.
      EXPECT_GE(horizon.ns(), last_horizon);
      last_horizon = horizon.ns();
      for (int s = 0; s < 2; ++s) {
        EXPECT_LT(executed_max[s], horizon.ns());
      }
    });
    g.run_all();
    EXPECT_GT(calls, 0u) << "workers=" << workers;
    g.set_barrier_hook(nullptr);
  }
}

}  // namespace
}  // namespace ibridge::sim

// ------------------------------------------------------- SimCheck fuzzing ----

namespace ibridge::check {
namespace {

int fuzz_iterations(int dflt) {
  if (const char* env = std::getenv("SIMCHECK_FUZZ_ITERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return dflt;
}

/// Digest tuple of one differential run — everything the simcheck tool
/// writes per seed, plus the fault digest when faulted.
struct CaseDigests {
  std::uint64_t payload, image, disk, ibridge, ssd, fault;
  bool operator==(const CaseDigests&) const = default;
};

CaseDigests digests_at(FuzzCase c, int shards) {
  c.base.shards = shards;
  const DiffReport d = run_differential(c);
  EXPECT_TRUE(d.ok()) << "shards=" << shards << ": " << d.failure;
  return {d.ibridge.payload_digest, d.ibridge.image_digest,
          d.disk.stats_digest,      d.ibridge.stats_digest,
          d.ssd.stats_digest,       d.ibridge.faulted ? d.ibridge.fault_digest
                                                      : 0};
}

// The acceptance criterion, in-tree: full differential cases produce
// byte-identical digests at every shard/worker count >= 1, healthy and
// under mixed fault injection.  Every other iteration also turns on shard
// groups (several servers per shard) — the grouped configuration must be
// just as worker-count invariant as the ungrouped one.
// (ctest -L fuzz scales the fleet up.)
TEST(ShardFuzz, DifferentialDigestsInvariantUnderShardCount) {
  const int iters = std::max(3, fuzz_iterations(200) / 40);
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = 0x51a4d5eedULL + static_cast<std::uint64_t>(i);
    FuzzCase c = generate_case(seed);
    if (i % 2 == 1) {
      c.faults = fault::make_scenario(fault::Scenario::kMixed,
                                      c.base.data_servers, seed,
                                      sim::SimTime::millis(40));
    }
    if (i % 2 == 0) {
      c.base.shard_group_size = 2 + static_cast<int>(seed % 3);
    }
    const CaseDigests base = digests_at(c, 1);
    // Random shard counts, always including one above the logical shard
    // count (clamped internally) to cover the oversubscribed path.
    sim::Rng rng(seed);
    const int counts[] = {2, 1 + static_cast<int>(rng() % 7),
                          c.base.data_servers + 3};
    for (int k : counts) {
      ASSERT_EQ(digests_at(c, k), base)
          << "seed=" << seed << " shards=" << k
          << (c.faults.empty() ? " (healthy)" : " (mixed faults)");
    }
  }
}

}  // namespace
}  // namespace ibridge::check
