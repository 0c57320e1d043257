// Epoch-based reclamation and per-thread records for the lock-free read
// paths.
//
// A reader that wants to dereference shared objects without a lock or a
// refcount opens a read section (EpochGuard) once per query call. Opening
// announces the global epoch in the thread's own cache-line-sized record;
// closing clears it. A writer that unlinks an object stamps it with
// EpochNow() (after the unlink) and keeps it on a retire list; the object
// may be freed once EpochSafeBound() exceeds its stamp, because every
// reader that could still hold it announced an epoch no later than the
// stamp and is still inside its section. Sections nest: only the outermost
// one announces, so a query call that calls other query calls pays once.
//
// Ordering argument (all epoch operations are seq_cst): a retirer unlinks,
// then loads the epoch e; EpochSafeBound first advances the epoch, then
// scans the records. A reader that announced an epoch > e read the global
// epoch after the retirer's load, hence after the unlink, and cannot find
// the object. A reader the scan saw as outside a section either finished
// its previous section (release store, observed by the scan) or announces
// after the scan, hence after the unlink.
//
// The same records give every live thread a dense index, which the metrics
// layer uses to stripe counters and histograms per thread (common/metrics.h).
// Records are never freed; a record released at thread exit is reused by
// the next thread that starts, so indexes stay small.
#ifndef DQMO_COMMON_EPOCH_H_
#define DQMO_COMMON_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace dqmo {
namespace internal {

struct alignas(64) ThreadRecord {
  /// Epoch announced by the owner while inside a read section; 0 outside.
  /// Written by the owner only, read by reclaimers.
  std::atomic<uint64_t> epoch{0};
  /// Read-section nesting depth. Owner only.
  uint32_t depth = 0;
  /// Dense index; distinct among live threads.
  uint32_t index = 0;
  std::atomic<bool> in_use{false};
  /// Registry list link; immutable once the record is published.
  ThreadRecord* next = nullptr;
  /// Objects owned by the current outermost section, freed when it closes
  /// (a node decoded without a cache to hold it). Owner only.
  std::vector<std::pair<void*, void (*)(void*)>> deferred;
};

/// The calling thread's record, or null before its first use.
inline thread_local ThreadRecord* tls_thread_record = nullptr;

/// Slow path of ThisThreadRecord: claims a free record or appends one.
ThreadRecord* AcquireThreadRecord();

inline ThreadRecord* ThisThreadRecord() {
  ThreadRecord* r = tls_thread_record;
  return r != nullptr ? r : AcquireThreadRecord();
}

/// Starts at 1 so that 0 can mean "not in a section".
inline std::atomic<uint64_t> g_epoch{1};

/// Frees the closing section's deferred objects.
void RunDeferred(ThreadRecord* r);

}  // namespace internal

/// RAII read section. Everything a lock-free reader obtained inside the
/// outermost section stays valid until that section closes.
class EpochGuard {
 public:
  EpochGuard() : rec_(internal::ThisThreadRecord()) {
    if (rec_->depth++ == 0) {
      rec_->epoch.store(internal::g_epoch.load(std::memory_order_seq_cst),
                        std::memory_order_seq_cst);
    }
  }
  ~EpochGuard() {
    if (--rec_->depth != 0) return;
    rec_->epoch.store(0, std::memory_order_release);
    if (!rec_->deferred.empty()) internal::RunDeferred(rec_);
  }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  internal::ThreadRecord* rec_;
};

/// True when the calling thread is inside a read section.
inline bool InEpochSection() {
  const internal::ThreadRecord* r = internal::tls_thread_record;
  return r != nullptr && r->depth > 0;
}

/// Hands `p` to the calling thread's open section; `del(p)` runs when the
/// outermost section closes. Requires InEpochSection().
void DeferUntilSectionExit(void* p, void (*del)(void*));

/// Stamp for an object just unlinked from a shared structure.
inline uint64_t EpochNow() {
  return internal::g_epoch.load(std::memory_order_seq_cst);
}

/// Advances the global epoch, then returns a bound b such that every
/// object unlinked and stamped with an epoch < b is unreachable by any
/// reader: the oldest epoch announced by a thread inside a section, or
/// UINT64_MAX when no thread is inside one. Cost: one RMW plus one load
/// per thread record.
uint64_t EpochSafeBound();

}  // namespace dqmo

#endif  // DQMO_COMMON_EPOCH_H_
