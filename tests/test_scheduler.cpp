// Tests for the I/O schedulers: merging, dispatch order, per-stream CFQ
// behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "storage/scheduler.hpp"

namespace ibridge::storage {
namespace {

PendingRequest make(sim::Simulator& sim, IoDirection dir, std::int64_t lbn,
                    std::int64_t sectors, int tag = 0) {
  return PendingRequest{BlockRequest{dir, lbn, sectors, tag}, sim.now(),
                        sim::SimPromise<BlockCompletion>(sim)};
}

// ----------------------------------------------------------------- Noop ----

TEST(NoopScheduler, FifoOrder) {
  sim::Simulator sim;
  NoopScheduler s;
  s.add(make(sim, IoDirection::kRead, 100, 8, 0));
  s.add(make(sim, IoDirection::kRead, 50, 8, 1));
  auto b1 = s.pop_next(0);
  EXPECT_EQ(b1.lbn, 100);
  auto b2 = s.pop_next(0);
  EXPECT_EQ(b2.lbn, 50);
  EXPECT_TRUE(s.empty());
}

TEST(NoopScheduler, BackAndFrontMerge) {
  sim::Simulator sim;
  NoopScheduler s;
  s.add(make(sim, IoDirection::kRead, 100, 8));
  s.add(make(sim, IoDirection::kRead, 108, 8));  // back merge
  s.add(make(sim, IoDirection::kRead, 92, 8));   // front merge
  auto b = s.pop_next(0);
  EXPECT_EQ(b.lbn, 92);
  EXPECT_EQ(b.sectors, 24);
  EXPECT_EQ(b.members.size(), 3u);
  EXPECT_TRUE(s.empty());
}

TEST(NoopScheduler, ChainedMergesAcrossQueueOrder) {
  sim::Simulator sim;
  NoopScheduler s;
  // 100..108 and 116..124 only become mergeable once 108..116 joins.
  s.add(make(sim, IoDirection::kRead, 100, 8));
  s.add(make(sim, IoDirection::kRead, 116, 8));
  s.add(make(sim, IoDirection::kRead, 108, 8));
  auto b = s.pop_next(0);
  EXPECT_EQ(b.sectors, 24);
}

TEST(NoopScheduler, NoMergeAcrossDirections) {
  sim::Simulator sim;
  NoopScheduler s;
  s.add(make(sim, IoDirection::kRead, 100, 8));
  s.add(make(sim, IoDirection::kWrite, 108, 8));
  auto b = s.pop_next(0);
  EXPECT_EQ(b.sectors, 8);
  EXPECT_EQ(s.depth(), 1u);
}

TEST(NoopScheduler, MergeRespectsSectorCap) {
  sim::Simulator sim;
  NoopScheduler s(/*max_merge_sectors=*/16);
  s.add(make(sim, IoDirection::kRead, 0, 12));
  s.add(make(sim, IoDirection::kRead, 12, 12));
  auto b = s.pop_next(0);
  EXPECT_EQ(b.sectors, 12);  // 24 > cap, no merge
}

TEST(NoopScheduler, PeekReportsFrontRequest) {
  sim::Simulator sim;
  NoopScheduler s;
  EXPECT_FALSE(s.peek(0).has_value());
  s.add(make(sim, IoDirection::kRead, 500, 8, 3));
  auto p = s.peek(100);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->distance, 400);
  EXPECT_EQ(p->tag, 3);
}

TEST(NoopScheduler, FifoEarlierCandidateWins) {
  sim::Simulator sim;
  // Room for one more 8-sector request: the front-mergeable request came
  // before the back-mergeable one, so it wins.
  NoopScheduler s(/*max_merge_sectors=*/16);
  s.add(make(sim, IoDirection::kRead, 100, 8, 0));
  s.add(make(sim, IoDirection::kRead, 92, 8, 1));   // front, earlier
  s.add(make(sim, IoDirection::kRead, 108, 8, 2));  // back, later
  auto b = s.pop_next(0);
  EXPECT_EQ(b.lbn, 92);
  EXPECT_EQ(b.sectors, 16);
  ASSERT_EQ(b.members.size(), 2u);
  EXPECT_EQ(b.members[1].req.tag, 1);
  EXPECT_EQ(s.peek(0)->tag, 2);

  // Of two requests at the same key, the earlier is absorbed.
  NoopScheduler t;
  t.add(make(sim, IoDirection::kWrite, 100, 8, 0));
  t.add(make(sim, IoDirection::kWrite, 108, 8, 1));
  t.add(make(sim, IoDirection::kWrite, 108, 8, 2));
  b = t.pop_next(0);
  EXPECT_EQ(b.sectors, 16);
  ASSERT_EQ(b.members.size(), 2u);
  EXPECT_EQ(b.members[1].req.tag, 1);
  EXPECT_EQ(t.depth(), 1u);
  EXPECT_EQ(t.peek(0)->tag, 2);
}

TEST(NoopScheduler, TooBigRequestAtKeyIsSkippedForLaterOneThatFits) {
  sim::Simulator sim;
  NoopScheduler s(/*max_merge_sectors=*/16);
  s.add(make(sim, IoDirection::kRead, 0, 8, 0));
  s.add(make(sim, IoDirection::kRead, 8, 16, 1));  // 8 + 16 > cap
  s.add(make(sim, IoDirection::kRead, 8, 8, 2));   // fits
  auto b = s.pop_next(0);
  EXPECT_EQ(b.lbn, 0);
  EXPECT_EQ(b.sectors, 16);
  ASSERT_EQ(b.members.size(), 2u);
  EXPECT_EQ(b.members[1].req.tag, 2);
  EXPECT_EQ(s.depth(), 1u);
  EXPECT_EQ(s.peek(0)->tag, 1);
}

// The linear-scan Noop merge that the boundary index replaced: after the
// FIFO head, rescan the queue from the front for the first request that
// back- or front-merges and fits, absorb it, and repeat.  The reference the
// differential test below holds NoopScheduler to.
class ScanNoop {
 public:
  explicit ScanNoop(std::int64_t max_sectors) : max_sectors_(max_sectors) {}

  void add(PendingRequest p) { queue_.push_back(std::move(p)); }

  DispatchBatch pop_next() {
    DispatchBatch out;
    if (queue_.empty()) return out;
    out.dir = queue_.front().req.dir;
    out.lbn = queue_.front().req.lbn;
    out.sectors = queue_.front().req.sectors;
    out.members.push_back(std::move(queue_.front()));
    queue_.erase(queue_.begin());
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        const BlockRequest& r = queue_[i].req;
        if (r.dir == out.dir && out.sectors + r.sectors <= max_sectors_ &&
            (r.lbn == out.end() || r.end() == out.lbn)) {
          if (r.lbn < out.lbn) out.lbn = r.lbn;
          out.sectors += r.sectors;
          out.members.push_back(std::move(queue_[i]));
          queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
          progress = true;
          break;
        }
      }
    }
    return out;
  }

  std::size_t depth() const { return queue_.size(); }

  std::optional<PeekInfo> peek(std::int64_t head_lbn) const {
    if (queue_.empty()) return std::nullopt;
    return PeekInfo{std::llabs(queue_.front().req.lbn - head_lbn),
                    queue_.front().req.tag};
  }

 private:
  std::int64_t max_sectors_;
  std::vector<PendingRequest> queue_;
};

// Seeded traffic that merges in every way the scheduler must handle: both
// directions, a dense region with duplicate LBNs and chance adjacency, and
// forward and backward sequential streams that chain back and front merges.
class MergeTraffic {
 public:
  explicit MergeTraffic(std::uint64_t seed) : rng_(seed) {}

  BlockRequest next() {
    BlockRequest r;
    r.dir = rng_.chance(0.5) ? IoDirection::kRead : IoDirection::kWrite;
    r.sectors = rng_.uniform(1, 16);
    const int d = static_cast<int>(r.dir);
    switch (rng_.below(3)) {
      case 0:
        r.lbn = rng_.uniform(0, 255);
        break;
      case 1:
        r.lbn = forward_[d];
        forward_[d] += r.sectors;
        break;
      default:
        backward_[d] -= r.sectors;
        r.lbn = backward_[d];
        break;
    }
    r.tag = tag_++;
    return r;
  }

  sim::Rng& rng() { return rng_; }

 private:
  sim::Rng rng_;
  std::int64_t forward_[2] = {1 << 20, 1 << 20};
  std::int64_t backward_[2] = {1 << 30, 1 << 30};
  int tag_ = 0;
};

void expect_same_batch(const DispatchBatch& got, const DispatchBatch& want,
                       int pop) {
  ASSERT_EQ(got.dir, want.dir) << "pop " << pop;
  ASSERT_EQ(got.lbn, want.lbn) << "pop " << pop;
  ASSERT_EQ(got.sectors, want.sectors) << "pop " << pop;
  ASSERT_EQ(got.members.size(), want.members.size()) << "pop " << pop;
  for (std::size_t m = 0; m < got.members.size(); ++m) {
    ASSERT_EQ(got.members[m].req.tag, want.members[m].req.tag)
        << "pop " << pop << " member " << m;
  }
}

TEST(NoopScheduler, MatchesLinearScanReferenceUnderSeededTraffic) {
  for (const std::int64_t max_sectors :
       {std::int64_t{1024}, std::int64_t{24}}) {
    SCOPED_TRACE(max_sectors);
    sim::Simulator sim;
    NoopScheduler s(max_sectors);
    ScanNoop ref(max_sectors);
    MergeTraffic traffic(0x5c4ed + static_cast<std::uint64_t>(max_sectors));
    int pops = 0;
    int chained = 0;  // batches of three or more requests
    std::size_t deepest = 0;
    const auto add = [&] {
      const BlockRequest r = traffic.next();
      s.add(make(sim, r.dir, r.lbn, r.sectors, r.tag));
      ref.add(make(sim, r.dir, r.lbn, r.sectors, r.tag));
      deepest = std::max(deepest, ref.depth());
    };
    const auto pop = [&] {
      const DispatchBatch got = s.pop_next(0);
      const DispatchBatch want = ref.pop_next();
      expect_same_batch(got, want, pops++);
      if (got.members.size() >= 3) ++chained;
      ASSERT_EQ(s.depth(), ref.depth()) << "pop " << pops;
      ASSERT_EQ(s.empty(), ref.depth() == 0);
      const std::int64_t head = traffic.rng().uniform(0, 1 << 20);
      const auto p = s.peek(head);
      const auto q = ref.peek(head);
      ASSERT_EQ(p.has_value(), q.has_value()) << "pop " << pops;
      if (p) {
        ASSERT_EQ(p->distance, q->distance) << "pop " << pops;
        ASSERT_EQ(p->tag, q->tag) << "pop " << pops;
      }
    };
    // Deep bursts drained under continuing arrivals, then a long shallow
    // stretch that never empties the queue, so the dead prefix outgrows 64
    // pops and half the buffer and gets compacted many times.
    for (int burst = 0; burst < 3; ++burst) {
      for (int i = 0; i < 4500; ++i) add();
      while (ref.depth() > 0) {
        if (traffic.rng().chance(0.3)) add();
        pop();
      }
    }
    for (int i = 0; i < 40; ++i) add();
    for (int step = 0; step < 20000; ++step) {
      if (ref.depth() < 10 || traffic.rng().chance(0.5)) {
        add();
      } else {
        pop();
      }
    }
    while (ref.depth() > 0) pop();
    EXPECT_GE(deepest, 4000u);
    EXPECT_GT(pops, 5000);
    EXPECT_GT(chained, 500);
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.peek(0).has_value());
  }
}

// ------------------------------------------------------------------ CFQ ----

TEST(CfqScheduler, RoundRobinAcrossStreams) {
  sim::Simulator sim;
  CfqScheduler s(/*quantum=*/1);
  s.add(make(sim, IoDirection::kRead, 100, 8, 1));
  s.add(make(sim, IoDirection::kRead, 200, 8, 2));
  s.add(make(sim, IoDirection::kRead, 108, 8, 1));
  s.add(make(sim, IoDirection::kRead, 208, 8, 2));
  std::vector<int> tags;
  while (!s.empty()) {
    auto b = s.pop_next(0);
    tags.push_back(b.members.front().req.tag);
  }
  // quantum=1: strict alternation (merging may combine same-stream pieces).
  ASSERT_GE(tags.size(), 2u);
  EXPECT_EQ(tags[0], 1);
  EXPECT_EQ(tags[1], 2);
}

TEST(CfqScheduler, QuantumKeepsStreamActive) {
  sim::Simulator sim;
  CfqScheduler s(/*quantum=*/8);
  // Non-contiguous requests within stream 1 so they can't merge.
  s.add(make(sim, IoDirection::kRead, 100, 8, 1));
  s.add(make(sim, IoDirection::kRead, 10'000, 8, 1));
  s.add(make(sim, IoDirection::kRead, 200, 8, 2));
  EXPECT_EQ(s.pop_next(0).members.front().req.tag, 1);
  EXPECT_EQ(s.pop_next(0).members.front().req.tag, 1);  // budget remains
  EXPECT_EQ(s.pop_next(0).members.front().req.tag, 2);
}

TEST(CfqScheduler, ScanOrderWithinStream) {
  sim::Simulator sim;
  CfqScheduler s;
  s.add(make(sim, IoDirection::kRead, 5000, 8, 1));
  s.add(make(sim, IoDirection::kRead, 1000, 8, 1));
  auto b = s.pop_next(2000);  // head between them -> pick 5000 (>= head)
  EXPECT_EQ(b.lbn, 5000);
}

TEST(CfqScheduler, CrossStreamContiguousAbsorb) {
  sim::Simulator sim;
  CfqScheduler s;
  s.add(make(sim, IoDirection::kRead, 100, 8, 1));
  s.add(make(sim, IoDirection::kRead, 108, 8, 2));  // other stream, adjacent
  auto b = s.pop_next(0);
  EXPECT_EQ(b.sectors, 16);
  EXPECT_EQ(b.members.size(), 2u);
  EXPECT_TRUE(s.empty());
}

TEST(CfqScheduler, CrossStreamFrontAbsorb) {
  sim::Simulator sim;
  CfqScheduler s;
  s.add(make(sim, IoDirection::kRead, 108, 8, 1));
  s.add(make(sim, IoDirection::kRead, 100, 8, 2));
  auto b = s.pop_next(104);  // picks stream 1's request first (>= head)
  EXPECT_EQ(b.lbn, 100);
  EXPECT_EQ(b.sectors, 16);
}

TEST(CfqScheduler, PeekPrefersActiveStream) {
  sim::Simulator sim;
  CfqScheduler s;
  s.add(make(sim, IoDirection::kRead, 100, 8, 1));
  (void)s.pop_next(0);  // stream 1 becomes active
  s.add(make(sim, IoDirection::kRead, 50'000, 8, 1));
  s.add(make(sim, IoDirection::kRead, 108, 8, 2));
  auto p = s.peek(108);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->tag, 1) << "active stream retains the slice";
  // HddModel's anticipation relies on peek naming what pop_next dispatches.
  auto b = s.pop_next(108);
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.members.front().req.tag, p->tag);
  EXPECT_EQ(b.lbn, 50'000);
  EXPECT_EQ(p->distance, 50'000 - 108);
}

TEST(CfqScheduler, DepthTracksAddsAndPops) {
  sim::Simulator sim;
  CfqScheduler s;
  for (int i = 0; i < 6; ++i) {
    s.add(make(sim, IoDirection::kRead, i * 1'000'000, 8, i % 3));
  }
  EXPECT_EQ(s.depth(), 6u);
  std::size_t popped = 0;
  while (!s.empty()) {
    popped += s.pop_next(0).members.size();
  }
  EXPECT_EQ(popped, 6u);
  EXPECT_EQ(s.depth(), 0u);
}

TEST(CfqScheduler, LastTagTracksDispatches) {
  sim::Simulator sim;
  CfqScheduler s(/*quantum=*/1);
  s.add(make(sim, IoDirection::kRead, 100, 8, 11));
  (void)s.pop_next(0);
  EXPECT_EQ(s.last_tag(), 11);
}

}  // namespace
}  // namespace ibridge::storage
