// Tests for the I/O schedulers: merging, dispatch order, per-stream CFQ
// behaviour.
#include <gtest/gtest.h>

#include <vector>

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
