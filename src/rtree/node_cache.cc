#include "rtree/node_cache.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/epoch.h"

namespace dqmo {
namespace {

/// Process-wide decoded-node-cache metrics (every cache aggregates; the
/// per-cache hits()/misses() accessors remain for per-instance deltas).
struct NodeCacheMetrics {
  Counter* hits;
  Counter* misses;
  Counter* evictions;
  Counter* invalidations;

  static NodeCacheMetrics& Get() {
    static NodeCacheMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return NodeCacheMetrics{
          r.GetCounter("dqmo_node_cache_hits_total",
                       "Decoded-node cache lookups served without a decode"),
          r.GetCounter("dqmo_node_cache_misses_total",
                       "Decoded-node cache lookups that fell through"),
          r.GetCounter("dqmo_node_cache_evictions_total",
                       "Decoded nodes evicted by the CLOCK sweep"),
          r.GetCounter("dqmo_node_cache_invalidations_total",
                       "Decoded nodes dropped because their page changed"),
      };
    }();
    return m;
  }
};

/// Smallest slot table; tables grow to the next power of two past an id.
constexpr size_t kMinTableSlots = 1024;
/// Retirements between reclaim passes.
constexpr size_t kReclaimBatch = 16;

}  // namespace

DecodedNodeCache::Table::Table(size_t n)
    : size(n), slots(new std::atomic<Entry*>[n]()) {}

DecodedNodeCache::DecodedNodeCache(size_t capacity_nodes)
    : capacity_(capacity_nodes),
      reclaim_at_(kReclaimBatch) {
  DQMO_CHECK(capacity_nodes >= 1);
}

DecodedNodeCache::~DecodedNodeCache() {
  for (Entry* e : ring_) delete e;
  for (const Retired& r : retired_) {
    delete r.entry;
    delete r.table;
  }
  delete table_.load(std::memory_order_relaxed);
}

const SoaNode* DecodedNodeCache::Lookup(PageId id) {
  DQMO_DCHECK(InEpochSection());
  const Table* t = table_.load(std::memory_order_acquire);
  Entry* e = (t != nullptr && id < t->size)
                 ? t->slots[id].load(std::memory_order_acquire)
                 : nullptr;
  if (e == nullptr) {
    misses_.Add();
    NodeCacheMetrics::Get().misses->Add();
    return nullptr;
  }
  // Test before set: a hot entry's bit is already set, so the hit writes
  // nothing shared.
  if (e->referenced.load(std::memory_order_relaxed) == 0) {
    e->referenced.store(1, std::memory_order_relaxed);
  }
  hits_.Add();
  NodeCacheMetrics::Get().hits->Add();
  return &e->node;
}

DecodedNodeCache::Table* DecodedNodeCache::TableFor(PageId id) {
  Table* t = table_.load(std::memory_order_relaxed);
  if (t != nullptr && id < t->size) return t;
  auto* grown = new Table(std::max(
      kMinTableSlots, std::bit_ceil(static_cast<size_t>(id) + 1)));
  if (t != nullptr) {
    for (size_t i = 0; i < t->size; ++i) {
      grown->slots[i].store(t->slots[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
  }
  table_.store(grown, std::memory_order_seq_cst);
  if (t != nullptr) Retire(nullptr, t);
  return grown;
}

void DecodedNodeCache::Unlink(Entry* e) {
  Table* t = table_.load(std::memory_order_relaxed);
  t->slots[e->node.self].store(nullptr, std::memory_order_seq_cst);
}

void DecodedNodeCache::Retire(Entry* e, Table* t) {
  // Stamped after the unlink: see the ordering argument in common/epoch.h.
  retired_.push_back(Retired{EpochNow(), e, t});
  if (retired_.size() >= reclaim_at_) ReclaimLocked();
}

void DecodedNodeCache::ReclaimLocked() {
  const uint64_t bound = EpochSafeBound();
  size_t kept = 0;
  for (const Retired& r : retired_) {
    if (r.epoch < bound) {
      delete r.entry;
      delete r.table;
    } else {
      retired_[kept++] = r;
    }
  }
  retired_.resize(kept);
  // Amortized: the next pass waits for another batch of retirements, so a
  // long read section that pins many nodes does not make every retire scan.
  reclaim_at_ = kept + kReclaimBatch;
}

const SoaNode* DecodedNodeCache::Insert(PageId id, SoaNode node) {
  DQMO_DCHECK(InEpochSection());
  DQMO_DCHECK(node.self == id);
  auto* fresh = new Entry(std::move(node));
  std::lock_guard<std::mutex> lock(mu_);
  Table* t = TableFor(id);
  Entry* old = t->slots[id].load(std::memory_order_relaxed);
  if (old != nullptr) {
    // Replace in place: the fresh entry takes the old one's ring slot.
    fresh->ring_pos = old->ring_pos;
    ring_[old->ring_pos] = fresh;
    t->slots[id].store(fresh, std::memory_order_seq_cst);
    Retire(old, nullptr);
    return &fresh->node;
  }
  if (ring_.size() < capacity_) {
    fresh->ring_pos = ring_.size();
    ring_.push_back(fresh);
  } else {
    // Sweep from a random slot (xorshift64). One pass clears every bit;
    // concurrent hits may set them again, so after two passes the entry
    // under the hand goes regardless.
    sweep_rng_ ^= sweep_rng_ << 13;
    sweep_rng_ ^= sweep_rng_ >> 7;
    sweep_rng_ ^= sweep_rng_ << 17;
    size_t hand = static_cast<size_t>(sweep_rng_ % ring_.size());
    for (size_t step = 0;; ++step) {
      Entry* e = ring_[hand];
      if (step < 2 * ring_.size() &&
          e->referenced.load(std::memory_order_relaxed) != 0) {
        e->referenced.store(0, std::memory_order_relaxed);
        hand = hand + 1 == ring_.size() ? 0 : hand + 1;
        continue;
      }
      Unlink(e);
      NodeCacheMetrics::Get().evictions->Add();
      fresh->ring_pos = hand;
      ring_[hand] = fresh;
      Retire(e, nullptr);
      break;
    }
  }
  t->slots[id].store(fresh, std::memory_order_release);
  return &fresh->node;
}

void DecodedNodeCache::Invalidate(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  Table* t = table_.load(std::memory_order_relaxed);
  if (t == nullptr || id >= t->size) return;
  Entry* e = t->slots[id].load(std::memory_order_relaxed);
  if (e == nullptr) return;
  Unlink(e);
  // Swap-remove from the ring.
  Entry* last = ring_.back();
  last->ring_pos = e->ring_pos;
  ring_[e->ring_pos] = last;
  ring_.pop_back();
  NodeCacheMetrics::Get().invalidations->Add();
  Retire(e, nullptr);
}

void DecodedNodeCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry*> ring;
  ring.swap(ring_);
  for (Entry* e : ring) Unlink(e);
  for (Entry* e : ring) Retire(e, nullptr);
}

void DecodedNodeCache::Reclaim() {
  std::lock_guard<std::mutex> lock(mu_);
  ReclaimLocked();
}

size_t DecodedNodeCache::cached_nodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

size_t DecodedNodeCache::retired_nodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Retired& r : retired_) n += r.entry != nullptr ? 1 : 0;
  return n;
}

}  // namespace dqmo
