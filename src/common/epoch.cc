#include "common/epoch.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace dqmo {
namespace internal {
namespace {

/// Head of the registry list. Records are pushed at the front and never
/// removed, so a scan can walk the list without a lock.
std::atomic<ThreadRecord*> g_records{nullptr};
std::atomic<uint32_t> g_next_index{0};

/// Returns the thread's record to the pool when the thread exits.
struct RecordReleaser {
  ~RecordReleaser() {
    ThreadRecord* r = tls_thread_record;
    if (r == nullptr) return;
    tls_thread_record = nullptr;
    r->depth = 0;
    r->epoch.store(0, std::memory_order_release);
    r->in_use.store(false, std::memory_order_release);
  }
};

thread_local RecordReleaser tls_releaser;

}  // namespace

ThreadRecord* AcquireThreadRecord() {
  ThreadRecord* claimed = nullptr;
  // Claim the free record with the lowest index, so that live threads keep
  // the low indexes the metric stripes are reserved for.
  for (;;) {
    ThreadRecord* best = nullptr;
    for (ThreadRecord* r = g_records.load(std::memory_order_acquire);
         r != nullptr; r = r->next) {
      if (!r->in_use.load(std::memory_order_relaxed) &&
          (best == nullptr || r->index < best->index)) {
        best = r;
      }
    }
    if (best == nullptr) break;
    bool expected = false;
    if (best->in_use.compare_exchange_strong(expected, true,
                                             std::memory_order_acquire)) {
      claimed = best;
      break;
    }
  }
  if (claimed == nullptr) {
    claimed = new ThreadRecord();  // Never freed: scans walk the list.
    claimed->index = g_next_index.fetch_add(1, std::memory_order_relaxed);
    claimed->in_use.store(true, std::memory_order_relaxed);
    ThreadRecord* head = g_records.load(std::memory_order_relaxed);
    do {
      claimed->next = head;
    } while (!g_records.compare_exchange_weak(head, claimed,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
  }
  tls_thread_record = claimed;
  (void)&tls_releaser;  // Odr-use: registers the exit hook for this thread.
  return claimed;
}

void RunDeferred(ThreadRecord* r) {
  for (const auto& [p, del] : r->deferred) del(p);
  r->deferred.clear();
}

}  // namespace internal

void DeferUntilSectionExit(void* p, void (*del)(void*)) {
  internal::ThreadRecord* r = internal::ThisThreadRecord();
  DQMO_CHECK(r->depth > 0);
  r->deferred.emplace_back(p, del);
}

uint64_t EpochSafeBound() {
  internal::g_epoch.fetch_add(1, std::memory_order_seq_cst);
  uint64_t bound = std::numeric_limits<uint64_t>::max();
  for (internal::ThreadRecord* r =
           internal::g_records.load(std::memory_order_acquire);
       r != nullptr; r = r->next) {
    const uint64_t e = r->epoch.load(std::memory_order_seq_cst);
    if (e != 0) bound = std::min(bound, e);
  }
  return bound;
}

}  // namespace dqmo
