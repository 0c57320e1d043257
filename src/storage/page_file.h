// PageFile: the simulated disk. A flat array of 4 KiB pages with physical
// read/write accounting, plus persistence to an OS file so that an index can
// be built once and reused across benchmark binaries.
//
// Integrity (page format v2): every page carries a CRC32C trailer over its
// payload (storage/page.h). Pages are sealed when written, verified on load
// and on the first read after entering memory untrusted, then trusted until
// their bytes change (verify-once, the block-cache model), so corruption
// surfaces as Status::Corruption carrying the page id instead of garbage
// geometry.
//
// Threading model (see DESIGN.md "Threading model"): concurrent Read calls
// are safe with each other — the I/O counters are atomic, the verify-once /
// dirty flags are accessed through std::atomic_ref, and lazy sealing is
// serialized by an internal mutex. All *mutations* (Allocate, Write,
// WritableView, LoadFrom, SaveTo, Clear-like calls) require external
// exclusion from every reader; the query engine provides it with the
// single-writer/multi-reader TreeGate (server/executor.h). Publish() puts a
// file into the steady state concurrent readers want: no dirty pages, every
// page pre-verified, so the read path mutates nothing but atomic counters.
#ifndef DQMO_STORAGE_PAGE_FILE_H_
#define DQMO_STORAGE_PAGE_FILE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace dqmo {

/// In-memory paged store standing in for the disk of the paper's testbed.
///
/// The substitution (documented in DESIGN.md) preserves the paper's metric:
/// every PageFile read/write is counted as one disk access, exactly what the
/// paper measures; actual seek latency is irrelevant to the reported
/// figures, which plot access *counts*. For real milliseconds, use the
/// disk-resident DiskPageFile backend (storage/disk_file.h) behind the same
/// PageStore interface.
class PageFile : public PageStore {
 public:
  /// Options for LoadFrom.
  struct LoadOptions {
    /// Verify every page's checksum while loading (v2 files); the first
    /// mismatch fails the load with Corruption carrying the page id and
    /// file offset. Disable only for forensic access (dqmo_tool scrub).
    bool verify_checksums = true;
  };

  PageFile() = default;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;
  /// Moves are not thread-safe: never move a file another thread can reach.
  PageFile(PageFile&& other) noexcept { MoveFrom(other); }
  PageFile& operator=(PageFile&& other) noexcept {
    if (this != &other) MoveFrom(other);
    return *this;
  }

  /// Appends a zeroed page and returns its id. Pages live in fixed-size
  /// chunks that are never moved, so a page's address (and every pointer a
  /// Read returned) stays valid across later Allocate calls. Requires
  /// exclusion from concurrent readers (the flag vectors may reallocate).
  PageId Allocate() override;

  size_t num_pages() const override { return num_pages_; }

  /// Reads page `id`, charging one physical read. Verifies the page's
  /// checksum on the first read after the page entered memory untrusted
  /// (a LoadFrom with verify_checksums=false); once verified, a page is
  /// trusted until its bytes change — the block-cache model, so
  /// steady-state reads pay only a flag check. A mismatch returns
  /// Corruption naming the page and increments stats().checksum_failures.
  /// set_verify_on_read(false) disables even the first-read check.
  /// Safe to call from concurrent readers.
  Result<ReadResult> Read(PageId id) override;

  /// Writes the kPageSize bytes at `data` into page `id` and seals it,
  /// charging one physical write. (The trailer bytes of `data` are
  /// overwritten by the freshly computed checksum.)
  Status Write(PageId id, const uint8_t* data) override;

  /// Mutable view of a page for in-place serialization, charging one
  /// physical write (the caller is about to overwrite the page). The page
  /// is re-sealed lazily before it is next read, verified, or saved.
  Result<PageView> WritableView(PageId id) override;

  /// Seals every page dirtied via WritableView right now, instead of
  /// lazily on the next read. A writer that shares the file with
  /// concurrent readers must call this before readers resume (the
  /// TreeGate write guard does), so no two readers race to seal the same
  /// page; cost is proportional to the number of dirtied pages.
  void SealAllDirty() override;

  /// Pages dirtied via WritableView/Allocate since the last SealAllDirty.
  /// May contain duplicates of already-resealed ids. The TreeGate write
  /// guard walks this to invalidate stale BufferPool frames before
  /// sealing. Requires exclusion from writers.
  const std::vector<PageId>& dirty_page_ids() const override {
    return dirty_pages_;
  }

  /// Prepares the file for concurrent readers: seals every dirty page and
  /// verifies every page's checksum up front, so the steady-state Read
  /// path mutates nothing but atomic counters. Fails with Corruption on
  /// the first bad page. Idempotent.
  Status Publish() override;

  const IoStats& stats() const override { return stats_; }
  IoStats* mutable_stats() override { return &stats_; }
  void ResetStats() override { stats_.Reset(); }

  /// Toggles checksum verification on Read (default on). Exists so the
  /// fault-tolerance bench can measure verification cost; leave on
  /// otherwise.
  void set_verify_on_read(bool verify) override { verify_on_read_ = verify; }
  bool verify_on_read() const override { return verify_on_read_; }

  /// True when this file was loaded from a legacy (v1) image; such files
  /// are readable but immutable (Write/WritableView fail with
  /// FailedPrecondition). Allocate still appends fresh pages, and SaveTo
  /// persists the whole file as v2 — the upgrade path.
  bool legacy_read_only() const { return legacy_read_only_; }

  /// Verifies one page's checksum (sealing it first if it has pending
  /// in-place writes). Always recomputes — scrub semantics, no trust
  /// cache. Corruption carries the page id.
  Status VerifyPage(PageId id) override;

  /// Test hook: flips `mask` into byte `offset` of page `id` *at rest* —
  /// storage itself is damaged (not just a delivered copy, which is
  /// FaultInjector territory), the trailer is left stale, and the page's
  /// verified flag is cleared so the next Read re-hashes and fails with
  /// Corruption. This is what VerifyAllPages/scrub detect and what
  /// DurableIndex::ReloadFromDisk repairs. Requires exclusion from
  /// concurrent readers, like any mutation.
  Status CorruptPageForTest(PageId id, size_t offset, uint8_t mask) override;

  /// Verifies every page, appending the ids of all corrupt pages to `bad`
  /// (unlike Read/LoadFrom it does not stop at the first). Returns the
  /// number of corrupt pages found. Used by `dqmo_tool scrub`.
  size_t VerifyAllPages(std::vector<PageId>* bad) override;

  /// Persists all pages atomically: writes `<path>.tmp`, fflush+fsync,
  /// then rename(2) over `path` — a crash mid-save (including at the
  /// kSaveBeforeRename crash point) leaves the previous file at `path`
  /// intact and loadable. Format: magic, version 2, page count, then raw
  /// sealed pages.
  Status SaveTo(const std::string& path) override;

  /// Loads a file written by SaveTo, replacing current contents. The byte
  /// count is validated against the header before anything is trusted:
  /// truncated, oversized, or absurdly-sized files fail with Corruption
  /// carrying the offending offset. Version 1 files (no checksums) load
  /// read-only; their pages are sealed in memory so reads verify.
  Status LoadFrom(const std::string& path, const LoadOptions& options);
  Status LoadFrom(const std::string& path) {
    return LoadFrom(path, LoadOptions());
  }

 private:
  Status CheckId(PageId id) const;
  Status CheckWritable() const;

  /// Pages per storage chunk (1 MiB chunks).
  static constexpr size_t kChunkPages = 256;
  static constexpr size_t kChunkBytes = kChunkPages * kPageSize;

  struct ChunkUnmapper {
    void operator()(uint8_t* p) const;
  };
  using Chunk = std::unique_ptr<uint8_t[], ChunkUnmapper>;

  uint8_t* PageData(PageId id) {
    return chunks_[id / kChunkPages].get() + (id % kChunkPages) * kPageSize;
  }

  /// Appends zeroed chunks until `num_pages` pages fit.
  void ReserveChunks(size_t num_pages);

  /// Recomputes the trailer of a page dirtied via WritableView. Safe under
  /// concurrent readers: the dirty flag is read atomically and sealing is
  /// serialized by seal_mu_.
  void SealIfDirty(PageId id);

  void MoveFrom(PageFile& other);

  /// Page bytes in chunks of kChunkPages pages; a chunk never moves.
  /// Each chunk is an anonymous mapping, so untouched pages of the last
  /// chunk stay unbacked.
  std::vector<Chunk> chunks_;
  /// Per-page flags, accessed through std::atomic_ref on the read path.
  /// dirty_: page written in place via WritableView, trailer stale.
  /// verified_: checksum verified (or freshly computed) since the bytes
  /// last changed; Read trusts these without re-hashing.
  std::vector<uint8_t> dirty_;
  std::vector<uint8_t> verified_;
  /// Ids dirtied via WritableView since the last SealAllDirty (may hold
  /// already-resealed ids; SealIfDirty is a no-op for them).
  std::vector<PageId> dirty_pages_;
  /// Serializes lazy sealing when concurrent readers hit a dirty page.
  std::mutex seal_mu_;
  size_t num_pages_ = 0;
  bool verify_on_read_ = true;
  bool legacy_read_only_ = false;
  IoStats stats_;
};

}  // namespace dqmo

#endif  // DQMO_STORAGE_PAGE_FILE_H_
