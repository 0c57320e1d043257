// End-to-end benchmark of the dynamic-query engine (see README.md).
//
// The benchmark drives the engine only through GenerateMotionData,
// ShardedEngine and ShardRouter for everything it times end to end, and
// through the public query classes (DynamicQuerySession,
// NonPredictiveDynamicQuery, KnnAt) for its traced pass and its output
// checks. It reads no metric family of the process-wide registry.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "query/knn.h"
#include "rtree/stats.h"
#include "server/router.h"
#include "server/shard.h"

namespace perfbench {

using dqmo::IoBackend;
using dqmo::MotionSegment;
using dqmo::Neighbor;
using dqmo::PageReader;
using dqmo::QueryStats;
using dqmo::SessionKind;
using dqmo::SessionSpec;
using dqmo::ShardedEngine;
using dqmo::ShardedEngineOptions;
using dqmo::Vec;

/// steady_clock in nanoseconds.
uint64_t NowNs();

/// splitmix64 finaliser over a combination of values: independent seeds
/// for every (run seed, stream, index).
uint64_t Mix(uint64_t a, uint64_t b, uint64_t c = 0);

/// Session kinds in the fixed order every per-kind array uses.
constexpr int kKinds = 3;
constexpr SessionKind kKindOrder[kKinds] = {
    SessionKind::kSession, SessionKind::kNpdq, SessionKind::kKnn};
int KindIndex(SessionKind kind);
const char* KindName(SessionKind kind);

/// The fixed description of one workload.
struct WorkloadSpec {
  std::string name;
  int threads = 1;
  int shards = 1;
  bool durable = false;
  IoBackend backend = IoBackend::kMemory;
  size_t pool_pages = 1024;
  size_t cache_nodes = 512;
  /// Session shape.
  int frames = 40;
  double frame_dt = 0.1;
  double window = 8.0;
  int k = 8;
  /// Segments starting before this time are bulk-loaded in set-up; the
  /// rest are the workload's updates, inserted in start-time order.
  double base_cutoff = 80.0;
  /// > 0: ingest, a batch of this many updates before every frame of the
  /// timed phase, and an untimed durable copy of the engine for the WAL
  /// figures. 0: every pending update is inserted during the timed phase,
  /// in update phases between the read windows (see UpdateBatchSize).
  size_t ingest_batch = 0;
  /// Sessions of each kind replayed against the brute-force oracle.
  int oracle_sessions_per_kind = 4;
  int oracle_frames = 30;
};

/// Null when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Updates per InsertBatch call of the update phases (and of the durable
/// copy): the pending updates divided by the frame intervals between
/// base_cutoff and the end of the data (t = 100), rounded up, so that each
/// call inserts the motion updates that arrive in about one frame interval.
size_t UpdateBatchSize(const WorkloadSpec& w, size_t pending);

/// Engine options of a workload; `durable_dir` is used only when durable.
ShardedEngineOptions EngineOptions(const WorkloadSpec& w,
                                   const std::string& durable_dir);

// ---------------------------------------------------------------------------
// Set-up.

struct SetupTimes {
  double create_s = 0;      // ShardedEngine::Create of the loading engine.
  double bulk_load_s = 0;   // ShardedEngine::BulkLoad.
  double checkpoint_s = 0;  // Durable only: every shard's image written.
  double open_s = 0;        // Durable only: Create over the images.
  double total_s() const {
    return create_s + bulk_load_s + checkpoint_s + open_s;
  }
};

/// Builds the workload's engine over `base`: Create + BulkLoad, and for
/// durable workloads a checkpoint image per shard in `dir` plus a durable
/// reopen over them. Aborts the run on failure.
std::unique_ptr<ShardedEngine> BuildEngine(
    const WorkloadSpec& w, const std::vector<MotionSegment>& base,
    const std::string& dir, SetupTimes* times);

/// Reads every node of every shard once through the shard's pool and node
/// cache (an NPDQ snapshot that every entry meets), so that caches larger
/// than the index hold all of it before the warm-up loop starts.
void WarmCaches(ShardedEngine* engine);

// ---------------------------------------------------------------------------
// Timing of one session's frames.

/// Frame boundaries, taken at the router's frame hook (or the direct
/// loop's equivalent). Work the hook does for the workload itself (an
/// ingest batch) is excluded from the frame it precedes.
class FrameClock {
 public:
  void Begin();
  /// Top of frame `frame` (1-based), before the hook's own work.
  void Top(int frame);
  void Exclude(uint64_t ns) { excluded_ += ns; }
  /// The frame's own work starts now.
  void Open(int frame);
  void End();
  const std::vector<uint64_t>& durations() const { return durations_; }

 private:
  void Close(uint64_t now);
  uint64_t start_ = 0;
  uint64_t excluded_ = 0;
  std::vector<uint64_t> durations_;
};

// ---------------------------------------------------------------------------
// Ingest: the update stream.

struct UpdateStats {
  uint64_t batches = 0;
  uint64_t updates = 0;
  uint64_t failed = 0;
  uint64_t insert_ns = 0;
  uint64_t shards_touched = 0;
  std::vector<uint64_t> ack_ns;
  void Reset() { *this = UpdateStats{}; }
};

/// The pending updates and the cursor into them. One writer thread.
class UpdateStream {
 public:
  UpdateStream(ShardedEngine* engine, const std::vector<MotionSegment>* rest,
               size_t batch)
      : engine_(engine), rest_(rest), batch_(batch) {}

  /// Inserts the next batch through ShardedEngine::InsertBatch and returns
  /// the time the call took (0 and no call once the stream is exhausted).
  uint64_t InsertNext();
  bool exhausted() const { return next_ >= rest_->size(); }
  /// Start time of the next pending update (the ingest front).
  double front() const;
  size_t inserted() const { return next_; }
  UpdateStats& stats() { return stats_; }

 private:
  ShardedEngine* engine_;
  const std::vector<MotionSegment>* rest_;
  size_t batch_;
  size_t next_ = 0;
  UpdateStats stats_;
  std::vector<MotionSegment> scratch_;
};

// ---------------------------------------------------------------------------
// Closed-loop session loops.

/// A session of the timed phase kept for the property checks.
struct SampledSession {
  SessionSpec spec;
  uint64_t checksum = 0;
  uint64_t frames = 0;
  uint64_t objects = 0;
};

/// Page reads seen through a TimedReader (traced pass only).
struct ReadTimes {
  uint64_t hits = 0, hit_ns = 0;
  uint64_t physical = 0, physical_ns = 0;
  void Add(const ReadTimes& o) {
    hits += o.hits;
    hit_ns += o.hit_ns;
    physical += o.physical;
    physical_ns += o.physical_ns;
  }
  uint64_t total_ns() const { return hit_ns + physical_ns; }
};

struct LoopStats {
  uint64_t sessions = 0;
  uint64_t frames = 0;
  uint64_t failed_sessions = 0;
  uint64_t wall_ns = 0;
  std::vector<uint64_t> first_ns;
  std::array<std::vector<uint64_t>, kKinds> frame_ns;
  std::array<uint64_t, kKinds> kind_frames{};
  std::array<QueryStats, kKinds> kind_stats;
  uint64_t objects = 0;
  /// Shard evaluations summed over frames (fan-out width).
  uint64_t shard_evals = 0;
  std::vector<SampledSession> sampled;
  std::vector<std::string> failures;
  // Traced pass only. Sessions alternate between reading through a
  // TimedReader (the kind_* and reads fields) and reading the pool
  // directly (the plain_* fields), which gives the tracing overhead.
  std::array<uint64_t, kKinds> kind_ns{};
  std::array<uint64_t, kKinds> kind_read_ns{};
  std::array<uint64_t, kKinds> kind_traced_frames{};
  ReadTimes reads;
  uint64_t predictive_frames = 0;
  uint64_t traced_session_ns = 0, traced_session_frames = 0;
  uint64_t plain_session_ns = 0, plain_session_frames = 0;

  void Merge(LoopStats&& o);
};

struct LoopConfig {
  const WorkloadSpec* w = nullptr;
  ShardedEngine* engine = nullptr;
  uint64_t seed = 0;
  /// Distinguishes the spec streams of warm-up, timed and traced phases.
  uint64_t stream = 0;
  double seconds = 1.0;
  /// Ingest workloads: the writer, called before every frame.
  UpdateStream* updates = nullptr;
  /// Sessions kept per thread for the property checks.
  size_t sample_per_thread = 0;
};

/// The timed phase: `w->threads` client threads, each running sessions
/// back to back through ShardRouter::RunOne until `seconds` have passed.
LoopStats RunRouterLoop(const LoopConfig& cfg);

/// The traced pass: the same closed loop, but sessions are driven through
/// the query classes directly. Every other session reads through a
/// TimedReader around each shard's pool, which splits time spent in page
/// reads from the rest of the frame; the others read the pools directly.
LoopStats RunTracedLoop(const LoopConfig& cfg);

/// Deterministic session spec number `index` of client `thread`.
SessionSpec MakeSpec(const WorkloadSpec& w, uint64_t seed, uint64_t stream,
                     int thread, uint64_t index, const UpdateStream* updates);

// ---------------------------------------------------------------------------
// Observer paths and direct (router-free) session execution.

/// An observer's positions, computed by the benchmark from a session spec
/// with the router's own observer model (server/session_runner.h), so that
/// a direct replay and ShardRouter::RunOne of one spec follow the same
/// flight. Frame i (1-based) ends at t[i-1]; the first ends at t0 + dt.
struct ObserverPath {
  double t0 = 0;
  std::vector<double> t;
  std::vector<Vec> pos;
  std::vector<Vec> vel;
};
ObserverPath PathOf(const SessionSpec& spec);

/// One frame's merged answer from RunDirect.
struct DirectFrame {
  int index = 0;
  double t0 = 0, t = 0;
  std::vector<MotionSegment> segments;  // kSession / kNpdq, union of shards.
  std::vector<Neighbor> neighbors;      // kKnn, merged top-k.
  bool predictive = false;              // kSession: served by the SPDQ.
  bool partial = false;
};

struct DirectOptions {
  SessionKind kind = SessionKind::kSession;
  double window = 8.0;
  int k = 8;
  /// One reader per shard (null entries: the shard's pool).
  std::vector<PageReader*> readers;
  /// Mirror the router's NPDQ root-bounds prune.
  bool spatial_prune = false;
  /// Called at the top of every frame, before any gate is taken.
  std::function<void(int frame)> hook;
  /// Receives every frame's merged answer (may be empty).
  std::function<void(const DirectFrame&)> sink;
};

struct DirectResult {
  bool ok = true;
  std::string error;
  QueryStats stats;
  uint64_t frames = 0;
  uint64_t objects = 0;
  uint64_t predictive_frames = 0;
  uint64_t shard_evals = 0;
};

/// Runs one session over every shard of `engine` in lockstep (one engine
/// object per shard, merged per frame like the router does).
DirectResult RunDirect(ShardedEngine* engine, const ObserverPath& path,
                       const DirectOptions& options);

// ---------------------------------------------------------------------------
// Output checks (checks.cc).

struct CheckLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  void Pass() { ++attempted; }
  void Fail(const std::string& why);
  void Expect(bool ok, const std::string& why) { ok ? Pass() : Fail(why); }
};

/// Replays seeded sessions of every kind through the query classes on the
/// benchmark's observer paths and compares each frame with a linear scan
/// of `data` (every segment the engine holds) under the paper's delivery
/// rules; then runs each session's spec through ShardRouter::RunOne and
/// requires every frame's merged answer to equal the checked one (by the
/// router's per-frame checksum). Sessions start in [t_lo, t_hi].
void CheckAgainstOracle(ShardedEngine* engine, const WorkloadSpec& w,
                        const std::vector<MotionSegment>& data, uint64_t seed,
                        double t_lo, double t_hi, CheckLog* log);

/// Re-runs sampled timed-phase sessions one at a time through
/// ShardRouter::RunOne on `engine` and requires equal checksums.
void CheckSampledReplay(ShardedEngine* engine,
                        const std::vector<SampledSession>& sampled,
                        const char* what, CheckLog* log);

/// Requires that `engine` holds exactly `expected`, and that seeded range
/// queries over it equal the brute-force answer.
void CheckHolds(ShardedEngine* engine,
                const std::vector<MotionSegment>& expected, uint64_t seed,
                const std::string& what, CheckLog* log);

/// Reopens the durable engine in `dir` (checkpoint image plus WAL replay)
/// and applies CheckHolds to it.
void CheckDurableReopen(const WorkloadSpec& w, const std::string& dir,
                        const std::vector<MotionSegment>& expected,
                        uint64_t seed, CheckLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
