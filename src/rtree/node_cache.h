// Cache of decoded SoA nodes with a lock-free hit path.
//
// The buffer pool (storage/buffer_pool.h) caches raw page *bytes*; every
// hit still pays a full Node::DeserializeFrom — header parse, per-entry
// float widening, and two vector allocations. The decoded-node cache sits
// one level up: it caches the already-decoded SoaNode, so a hit costs a
// table probe and zero parsing or allocation.
//
// What a hit does: two acquire loads (the slot table, then the slot of the
// page id), a read of the entry's reference bit (written only while it is
// clear, i.e. once after each CLOCK sweep cleared it), and two per-thread
// counter stripes. No lock, no refcount, and no write to a cache line that
// another thread writes. The returned pointer is not owned: it stays valid
// until the calling thread's outermost EpochGuard closes (common/epoch.h),
// which every query call (DynamicQuerySession::OnFrame,
// NonPredictiveDynamicQuery::Execute, PredictiveDynamicQuery::GetNext,
// KnnAt) opens once.
//
// Misses, evictions and invalidations serialize on one mutex. Eviction is
// CLOCK (second chance) with a random start: a hit sets the entry's
// reference bit; to make room, the sweep starts at a random slot, clears
// set bits and evicts the first clear one. The random start makes the
// victim a random entry without a recent hit. A fixed sweep order would
// evict in FIFO order, so a query that loops over more nodes than the
// cache holds would miss on every node (the slowest NPDQ frames of the
// benchmark's cold_jump workload load ~43 nodes against 32 slots).
//
// When a retired node is freed: an evicted or invalidated entry is
// unlinked from its slot and retired with the current epoch; a reclaim pass
// frees it once every thread that was inside a read section at the unlink
// has left it. Reclaim passes run whenever the retire list has grown by a
// batch since the last pass, on Reclaim(), and at each TreeGate write-guard
// release. A grown slot table is retired the same way.
//
// Counters: hits and misses are recorded into per-thread stripes
// (StripedCounter, common/metrics.h), exact when summed at a quiescent
// point.
//
// Invalidation protocol (mirrors the frame-invalidation protocol of the
// buffer pool):
//  * RTree::StoreNode / RTree::FreePage invalidate the attached cache
//    directly on every page write/free — this covers single-threaded use
//    where no TreeGate exists.
//  * Under the concurrent engine, the TreeGate write guard additionally
//    invalidates every dirtied page id before readers resume
//    (server/executor.cc), symmetric with how it invalidates BufferPool
//    frames — belt and braces for writers that bypass RTree helpers.
// Readers never observe a stale decode: invalidation happens while writers
// hold the tree exclusively, before any reader can run.
#ifndef DQMO_RTREE_NODE_CACHE_H_
#define DQMO_RTREE_NODE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "rtree/node_soa.h"

namespace dqmo {

/// Fixed-capacity CLOCK cache over decoded nodes, keyed by PageId.
///
/// Thread safety: Lookup and Insert may run concurrently from any number
/// of threads, each inside an EpochGuard; Invalidate and Clear may run
/// concurrently with them too (the engine runs them under its exclusive
/// gate). The destructor requires that no thread is still reading.
class DecodedNodeCache {
 public:
  /// `capacity_nodes` must be >= 1.
  explicit DecodedNodeCache(size_t capacity_nodes);
  ~DecodedNodeCache();

  DecodedNodeCache(const DecodedNodeCache&) = delete;
  DecodedNodeCache& operator=(const DecodedNodeCache&) = delete;

  /// Returns the cached decode of `id`, or nullptr on a miss, and counts
  /// the hit or miss. Lock-free. Requires InEpochSection(); the node stays
  /// valid until the caller's outermost section closes.
  const SoaNode* Lookup(PageId id);

  /// Caches `node` as the decode of `id` (evicting by CLOCK when full,
  /// replacing any existing entry for `id`) and returns the cached copy,
  /// valid like a Lookup result. Requires InEpochSection().
  const SoaNode* Insert(PageId id, SoaNode node);

  /// Drops the cached decode of one page (after a page write or free).
  void Invalidate(PageId id);

  /// Drops every cached node.
  void Clear();

  /// Frees every retired node that no reader can still hold.
  void Reclaim();

  size_t capacity() const { return capacity_; }
  size_t cached_nodes() const;
  /// Unlinked nodes waiting for their readers to leave.
  size_t retired_nodes() const;

  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }

 private:
  struct Entry {
    explicit Entry(SoaNode n) : node(std::move(n)) {}
    SoaNode node;
    /// CLOCK reference bit: set by hits, cleared by the sweep.
    std::atomic<uint8_t> referenced{0};
    /// Position in ring_. Guarded by mu_.
    size_t ring_pos = 0;
  };

  /// Direct-indexed slots by PageId. Grown (copied) under mu_; readers
  /// keep using a retired table until their section closes.
  struct Table {
    explicit Table(size_t n);
    size_t size;
    std::unique_ptr<std::atomic<Entry*>[]> slots;
  };

  struct Retired {
    uint64_t epoch;
    Entry* entry;  // Exactly one of entry / table is set.
    Table* table;
  };

  Table* TableFor(PageId id);         // Grows the table. Requires mu_.
  void Unlink(Entry* e);              // Requires mu_.
  void Retire(Entry* e, Table* t);    // Requires mu_.
  void ReclaimLocked();

  const size_t capacity_;
  std::atomic<Table*> table_{nullptr};
  mutable std::mutex mu_;
  /// Resident entries (CLOCK ring) and the sweep's xorshift state.
  std::vector<Entry*> ring_;
  uint64_t sweep_rng_ = 0x9e3779b97f4a7c15ULL;
  std::vector<Retired> retired_;
  /// Retire-list length that triggers the next reclaim pass.
  size_t reclaim_at_;
  StripedCounter hits_;
  StripedCounter misses_;
};

}  // namespace dqmo

#endif  // DQMO_RTREE_NODE_CACHE_H_
