#include "storage/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>

namespace ibridge::storage {

// ---------------------------------------------------------------- Noop ----

// Every SSD owns one, and past 128 B its size alone moved peak RSS at 512
// servers through heap layout (docs/PERF.md, "The SSD queue and the
// write-back drain").
static_assert(sizeof(NoopScheduler) <= 128);

std::size_t NoopScheduler::find(std::int64_t key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = home(key);
  while (index_[pos].key != key && index_[pos].key != kNoKey) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

void NoopScheduler::link(std::uint32_t i, Boundary b) {
  const std::int64_t key = key_of(queue_[i].p.req, b);
  queue_[i].next[b] = kNil;
  Bucket& k = index_[find(key)];
  if (k.key == kNoKey) {
    k = Bucket{key, i, i};
    ++keys_;
  } else {
    queue_[k.tail].next[b] = i;
    k.tail = i;
  }
}

void NoopScheduler::unlink(std::uint32_t i, Boundary b) {
  std::size_t hole = find(key_of(queue_[i].p.req, b));
  Bucket& k = index_[hole];
  assert(k.key != kNoKey);
  const std::uint32_t next = queue_[i].next[b];
  if (k.head != i) {
    std::uint32_t prev = k.head;
    while (queue_[prev].next[b] != i) prev = queue_[prev].next[b];
    queue_[prev].next[b] = next;
    if (k.tail == i) k.tail = prev;
    return;
  }
  if (next != kNil) {
    k.head = next;
    return;
  }
  // Last request with this key: delete it by backward shift, moving each
  // later key of the probe run into the hole when its home allows.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; index_[j].key != kNoKey;
       j = (j + 1) & mask) {
    if (((j - home(index_[j].key)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].key = kNoKey;
  --keys_;
}

std::uint32_t NoopScheduler::first_fit(std::int64_t key, Boundary b,
                                       std::int64_t room) const {
  const Bucket& k = index_[find(key)];
  if (k.key == kNoKey) return kNil;
  for (std::uint32_t i = k.head; i != kNil; i = queue_[i].next[b]) {
    if (queue_[i].p.req.sectors <= room) return i;
  }
  return kNil;
}

void NoopScheduler::grow() {
  // Keep the load at most 0.75; only ever grows, so a queue that has seen
  // its high-water mark never allocates here again.
  std::vector<Bucket> old = std::move(index_);
  index_.assign(old.empty() ? 16 : old.size() * 2,
                Bucket{kNoKey, kNil, kNil});
  index_shift_ = 64 - std::countr_zero(index_.size());
  for (const Bucket& k : old) {
    if (k.key != kNoKey) index_[find(k.key)] = k;
  }
}

void NoopScheduler::compact() {
  // Shift the queue down by the dead prefix and rebase every link.  Each
  // chain's head and tail are live requests, so visiting the live ones in
  // order rebases every index entry exactly once: an already-rebased value
  // is below the current slot and cannot be mistaken for its old index.
  const std::uint32_t shift = head_;
  queue_.erase(queue_.begin(), queue_.begin() + shift);
  head_ = 0;
  for (std::uint32_t i = 0; i < queue_.size(); ++i) {
    Slot& s = queue_[i];
    if (s.p.req.sectors == 0) continue;
    for (const Boundary b : {kAtLbn, kAtEnd}) {
      if (s.next[b] != kNil) s.next[b] -= shift;
      Bucket& k = index_[find(key_of(s.p.req, b))];
      if (k.head == i + shift) k.head = i;
      if (k.tail == i + shift) k.tail = i;
    }
  }
}

void NoopScheduler::add(PendingRequest p) {
  assert(p.req.sectors > 0);  // sectors == 0 marks a tombstone
  // Reclaim the dead prefix left by popped heads before growing the tail:
  // when it dominates the buffer, shift the live range down in place.  The
  // buffer's capacity is reused forever, so a steady-state queue never
  // allocates.
  if (head_ > 64 && std::size_t{head_} * 2 > queue_.size()) compact();
  if ((std::size_t{keys_} + 2) * 4 > index_.size() * 3) grow();
  assert(queue_.size() < kNil);
  const auto i = static_cast<std::uint32_t>(queue_.size());
  queue_.push_back(Slot{std::move(p), {kNil, kNil}});
  link(i, kAtLbn);
  link(i, kAtEnd);
  ++live_;
}

void NoopScheduler::pop_next(std::int64_t /*head_lbn*/, DispatchBatch& out) {
  out.reset();
  if (live_ == 0) return;

  // The FIFO head is the earliest live request, so it heads both its chains.
  unlink(head_, kAtLbn);
  unlink(head_, kAtEnd);
  PendingRequest& front = queue_[head_].p;
  out.dir = front.req.dir;
  out.lbn = front.req.lbn;
  out.sectors = front.req.sectors;
  out.members.push_back(std::move(front));
  --live_;

  // Absorb the FIFO-earliest request that back- or front-merges and fits.
  // A merge moves the batch's ends, which can enable another one, so repeat
  // until neither end has a taker.  kNil is the largest index, so min()
  // picks the earlier of the two candidates.
  for (;;) {
    const std::int64_t room = max_sectors_ - out.sectors;
    const std::uint32_t i =
        std::min(first_fit(key_at(out.dir, kAtLbn, out.end()), kAtLbn, room),
                 first_fit(key_at(out.dir, kAtEnd, out.lbn), kAtEnd, room));
    if (i == kNil) break;
    unlink(i, kAtLbn);
    unlink(i, kAtEnd);
    PendingRequest& r = queue_[i].p;
    if (r.req.lbn < out.lbn) out.lbn = r.req.lbn;
    out.sectors += r.req.sectors;
    out.members.push_back(std::move(r));
    r.req.sectors = 0;
    --live_;
  }

  if (live_ == 0) {
    queue_.clear();
    head_ = 0;
    return;
  }
  do {
    ++head_;
  } while (queue_[head_].p.req.sectors == 0);
}

std::optional<PeekInfo> NoopScheduler::peek(std::int64_t head_lbn) const {
  if (live_ == 0) return std::nullopt;
  const BlockRequest& r = queue_[head_].p.req;
  return PeekInfo{std::llabs(r.lbn - head_lbn), r.tag};
}

}  // namespace ibridge::storage
