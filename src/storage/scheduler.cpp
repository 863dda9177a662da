#include "storage/scheduler.hpp"

#include <cstdlib>

namespace ibridge::storage {

namespace {

bool mergeable(const DispatchBatch& b, const BlockRequest& r,
               std::int64_t max_sectors) {
  return r.dir == b.dir && b.sectors + r.sectors <= max_sectors &&
         (r.lbn == b.end() || r.end() == b.lbn);
}

void absorb(DispatchBatch& b, PendingRequest p) {
  if (p.req.lbn < b.lbn) b.lbn = p.req.lbn;
  b.sectors += p.req.sectors;
  b.members.push_back(std::move(p));
}

}  // namespace

// ---------------------------------------------------------------- Noop ----

void NoopScheduler::add(PendingRequest p) {
  // Reclaim the dead prefix left by popped heads before growing the tail:
  // when it dominates the buffer, shift the live range down in place.  The
  // buffer's capacity is reused forever, so a steady-state queue never
  // allocates.
  if (head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
  } else if (head_ > 64 && head_ * 2 > queue_.size()) {
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  queue_.push_back(std::move(p));
}

void NoopScheduler::pop_next(std::int64_t /*head_lbn*/, DispatchBatch& out) {
  out.reset();
  if (head_ == queue_.size()) return;

  PendingRequest& front = queue_[head_];
  out.dir = front.req.dir;
  out.lbn = front.req.lbn;
  out.sectors = front.req.sectors;
  out.members.push_back(std::move(front));
  ++head_;

  // Scan the rest of the queue for front-/back-mergeable requests.  A merge
  // can enable another one, so repeat until a pass makes no progress.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = head_; i < queue_.size(); ++i) {
      if (mergeable(out, queue_[i].req, max_sectors_)) {
        absorb(out, std::move(queue_[i]));
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        progress = true;
        break;
      }
    }
  }
  if (head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
  }
}

std::optional<PeekInfo> NoopScheduler::peek(std::int64_t head_lbn) const {
  if (head_ == queue_.size()) return std::nullopt;
  return PeekInfo{std::llabs(queue_[head_].req.lbn - head_lbn),
                  queue_[head_].req.tag};
}

}  // namespace ibridge::storage
