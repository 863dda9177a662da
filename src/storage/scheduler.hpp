// I/O schedulers for the simulated block devices.
//
// The paper runs CFQ on the hard disks and Noop on the SSDs.  What matters
// for reproducing its block-level request-size distributions (Figs 2(c-e), 5)
// is (a) whether contiguous queued requests get merged into one dispatch and
// (b) in what order requests are dispatched.  NoopScheduler (the SSDs) models
// a FIFO with front/back merging; CfqScheduler (the disks) models per-stream
// round-robin slices with SCAN order inside a stream plus cross-stream merging.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/mem_pool.hpp"
#include "sim/sync.hpp"
#include "storage/block.hpp"

namespace ibridge::storage {

/// A queued request together with its completion promise.
struct PendingRequest {
  BlockRequest req;
  sim::SimTime submitted;
  sim::SimPromise<BlockCompletion> promise;
};

/// A batch of pending requests merged into one contiguous device operation.
struct DispatchBatch {
  IoDirection dir = IoDirection::kRead;
  std::int64_t lbn = 0;
  std::int64_t sectors = 0;
  std::vector<PendingRequest> members;

  bool empty() const { return members.empty(); }
  std::int64_t end() const { return lbn + sectors; }
  std::int64_t bytes() const { return sectors * kSectorBytes; }

  /// Clear for reuse, keeping the members vector's capacity.  The devices
  /// recycle their in-flight batches through this, so steady-state dispatch
  /// never allocates.
  void reset() {
    dir = IoDirection::kRead;
    lbn = 0;
    sectors = 0;
    members.clear();
  }
};

/// What pop_next would dispatch, without removing it.
struct PeekInfo {
  std::int64_t distance = 0;  ///< |candidate lbn - head|
  int tag = -1;               ///< candidate's issuing stream
};

/// Scheduler interface: owns the pending queue between add() and pop_next().
class IoScheduler {
 public:
  virtual ~IoScheduler() = default;

  virtual void add(PendingRequest p) = 0;

  /// Remove the next batch to dispatch given the current head position into
  /// `out` (reset()s it first; its members capacity survives reuse).  `out`
  /// stays empty when the queue is.
  virtual void pop_next(std::int64_t head_lbn, DispatchBatch& out) = 0;

  /// Value-returning convenience for tests and tools.
  DispatchBatch pop_next(std::int64_t head_lbn) {
    DispatchBatch out;
    pop_next(head_lbn, out);
    return out;
  }

  virtual bool empty() const = 0;
  virtual std::size_t depth() const = 0;

  /// Inspect the request pop_next would dispatch.  Used by the device's
  /// anticipation heuristic.
  virtual std::optional<PeekInfo> peek(std::int64_t head_lbn) const = 0;
};

/// FIFO dispatch with front/back merging of contiguous same-direction
/// requests (the Linux noop scheduler still merges).  Each dispatch takes
/// the FIFO head, then repeatedly absorbs the FIFO-earliest queued request
/// that starts at the batch's end or ends at its start and keeps it within
/// `max_merge_sectors`.  Like the kernel elevator's request hash
/// (elv_rqhash_*), every queued request is indexed by those two boundaries,
/// so a merge step looks up two keys instead of scanning the queue: a
/// dispatch costs O(batch), not O(queue depth).
class NoopScheduler final : public IoScheduler {
 public:
  /// `max_merge_sectors` mirrors the kernel's max_sectors_kb limit.
  explicit NoopScheduler(std::int64_t max_merge_sectors = 1024)
      : max_sectors_(max_merge_sectors) {}

  using IoScheduler::pop_next;
  void add(PendingRequest p) override;
  void pop_next(std::int64_t head_lbn, DispatchBatch& out) override;
  bool empty() const override { return live_ == 0; }
  std::size_t depth() const override { return live_; }
  std::optional<PeekInfo> peek(std::int64_t head_lbn) const override;

 private:
  // A request's two merge keys: kAtLbn indexes it by (dir, lbn), where a
  // back merge looks; kAtEnd by (dir, end), where a front merge looks.
  enum Boundary : int { kAtLbn = 0, kAtEnd = 1 };
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::int64_t kNoKey = -1;

  // A queued request plus, per boundary, the next queued request with the
  // same key (FIFO order).  A request absorbed out of FIFO order stays in
  // place as a tombstone (sectors == 0) until the head passes it.
  struct Slot {
    PendingRequest p;
    std::uint32_t next[2];
  };
  // One key of the open-addressing index: the FIFO chain of live requests
  // carrying it.  Linear probing, deletion by backward shift, so the table
  // never holds dead keys.
  struct Bucket {
    std::int64_t key;
    std::uint32_t head;
    std::uint32_t tail;
  };

  static std::int64_t key_of(const BlockRequest& r, Boundary b) {
    return key_at(r.dir, b, b == kAtLbn ? r.lbn : r.end());
  }
  static std::int64_t key_at(IoDirection dir, Boundary b, std::int64_t sector) {
    return sector << 2 | static_cast<std::int64_t>(dir) << 1 | b;
  }
  std::size_t home(std::int64_t key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >>
        index_shift_);
  }
  std::size_t find(std::int64_t key) const;
  void link(std::uint32_t i, Boundary b);
  void unlink(std::uint32_t i, Boundary b);
  std::uint32_t first_fit(std::int64_t key, Boundary b,
                          std::int64_t room) const;
  void grow();
  void compact();

  std::int64_t max_sectors_;
  // FIFO as a vector with an advancing head: pop_front is ++head_ and add()
  // periodically compacts the live tail down in place, so a steady-state
  // queue reuses one buffer forever (std::deque would churn a 512-byte
  // chunk through the allocator every few dozen requests).  The index
  // likewise keeps its capacity; both allocate on first add(), never here.
  std::vector<Slot> queue_;
  std::vector<Bucket> index_;
  std::uint32_t head_ = 0;
  std::uint32_t live_ = 0;
  std::uint32_t keys_ = 0;
  int index_shift_ = 64;  // 64 - log2(index_.size())
};

/// CFQ-like scheduler: one queue per issuing stream (BlockRequest::tag),
/// served in round-robin slices of `quantum` dispatches.  Within the active
/// stream requests dispatch in SCAN order; each dispatch absorbs requests
/// contiguous with it from ANY stream (the kernel's cross-queue merge).
/// This is the regime the paper's testbed ran (CFQ on the data-server
/// disks): per-process service order means concurrent strided streams do
/// NOT merge into long runs, which is what produces Figure 2(c)'s
/// mostly-64KB dispatch distribution.
class CfqScheduler final : public IoScheduler {
 public:
  explicit CfqScheduler(int quantum = 8, std::int64_t max_merge_sectors = 1024)
      : quantum_(quantum), max_sectors_(max_merge_sectors) {
    // Pre-warm the node pool and the round-robin ring for a queue-depth
    // high-water mark of kPrimeDepth requests.  Both rb-tree node types
    // (outer tag entry, inner per-stream entry) land in the 128-byte size
    // class on LP64; a depth record first set mid-run then costs a recycled
    // chunk, not a fresh one — same pre-sizing contract as
    // MappingTable::reserve, covered by bench_scale --check's zero-alloc
    // steady-state gate.
    pool_.prime(128, kPrimeDepth);
    pool_.prime(192, kPrimeDepth);
    rr_.reserve(kPrimeDepth);
  }

  using IoScheduler::pop_next;
  void add(PendingRequest p) override;
  void pop_next(std::int64_t head_lbn, DispatchBatch& out) override;
  bool empty() const override { return size_ == 0; }
  std::size_t depth() const override { return size_; }
  std::optional<PeekInfo> peek(std::int64_t head_lbn) const override;

  /// Tag whose stream was dispatched from most recently (for the device's
  /// CFQ-style anticipation: an arrival from this tag ends idling).
  int last_tag() const { return last_tag_; }

  /// Queue depth (pending requests per disk) the constructor pre-warms node
  /// pools for; ~80 KB per scheduler.  Deeper queues still work — they just
  /// pay a one-time pool miss per chunk of extra depth.
  static constexpr std::size_t kPrimeDepth = 256;

 private:
  // Per-stream queue sorted by (lbn, arrival seq).  Both map levels allocate
  // their nodes from the scheduler's own ChunkPool: nodes freed by a
  // dispatch are recycled by the next add(), so steady-state queue churn
  // never touches the global allocator (the million-rank campaign's
  // zero-allocs-per-request gate covers this path via bench_scale --check).
  using Key = std::pair<std::int64_t, std::uint64_t>;
  using QueueAlloc = sim::PoolAllocator<std::pair<const Key, PendingRequest>>;
  using StreamQueue = std::map<Key, PendingRequest, std::less<Key>, QueueAlloc>;
  using TagAlloc = sim::PoolAllocator<std::pair<const int, StreamQueue>>;

  const PendingRequest* pick(const StreamQueue& q, std::int64_t head) const;
  bool absorb_contiguous(DispatchBatch& batch);
  void note_stream_drained(int tag);
  void rr_push(int tag);

  int quantum_;
  std::int64_t max_sectors_;
  // Declared before the maps: the pool must outlive every node they hold.
  sim::ChunkPool pool_;
  std::map<int, StreamQueue, std::less<int>, TagAlloc> queues_{TagAlloc(pool_)};
  // Round-robin order of streams with pending work, as a vector with an
  // advancing head (same allocation-free FIFO idiom as NoopScheduler).
  std::vector<int> rr_;
  std::size_t rr_head_ = 0;
  int active_ = -1;
  int budget_ = 0;
  int last_tag_ = -1;
  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ibridge::storage
