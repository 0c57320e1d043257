#include "server/router.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <unordered_set>
#include <utility>

#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "geom/box.h"
#include "query/npdq.h"
#include "query/session.h"
#include "server/health.h"
#include "server/session_runner.h"
#include "storage/prefetch.h"

namespace dqmo {

using server_internal::ExecMetrics;
using server_internal::FoldDouble;
using server_internal::FoldSegments;
using server_internal::FoldU64;
using server_internal::FrameController;
using server_internal::FrameLatencyScope;
using server_internal::kFnvOffset;
using server_internal::MakeObserver;
using server_internal::Observer;

namespace {

struct RouterMetrics {
  Histogram* fanout_width;
  Counter* frames_pruned;
  Counter* frames_partial;
  Counter* sessions;

  static RouterMetrics& Get() {
    static RouterMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return RouterMetrics{
          r.GetHistogram("dqmo_shard_fanout_width",
                         "Shards evaluated per sharded query frame"),
          r.GetCounter("dqmo_shard_frames_pruned_total",
                       "Shard evaluations skipped by the root-bounds prune"),
          r.GetCounter("dqmo_shard_frames_partial_total",
                       "Sharded frames whose merged answer was kPartial"),
          r.GetCounter("dqmo_shard_sessions_total",
                       "Sessions run through the shard router"),
      };
    }();
    return m;
  }
};

/// Shared side of every shard's gate for one frame, in shard order.
/// Readers lock ascending and writers hold a single gate at a time, so
/// the order cannot deadlock.
std::vector<std::shared_lock<std::shared_mutex>> LockAllShards(
    ShardedEngine* engine) {
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(static_cast<size_t>(engine->num_shards()));
  for (int s = 0; s < engine->num_shards(); ++s) {
    // Tag so the gate-wait span inside LockShared lands in this shard's
    // subtree of the frame's merged trace.
    Tracer::ShardTag tag(s);
    locks.push_back(engine->shard(s).gate->LockShared());
  }
  return locks;
}

/// A shed frame voids every shard's declared future: speculative reads
/// hinted for it would only land as wasted I/O (no-op on memory backends).
void CancelShardPrefetch(ShardedEngine* engine) {
  for (int s = 0; s < engine->num_shards(); ++s) {
    Prefetcher* pf = engine->shard(s).prefetcher.get();
    if (pf != nullptr) pf->CancelPending();
  }
}

/// Canonical per-stream order the entry-time merge expects.
void SortStreamByEntryTime(std::vector<MotionSegment>* stream) {
  std::stable_sort(stream->begin(), stream->end(),
                   [](const MotionSegment& a, const MotionSegment& b) {
                     if (a.seg.time.lo != b.seg.time.lo) {
                       return a.seg.time.lo < b.seg.time.lo;
                     }
                     return a.key() < b.key();
                   });
}

/// True iff the shard provably contributes nothing to `q`: empty tree, or
/// root bounds (a cover of every stored match box, kept by the tree
/// without a page read) disjoint from q. Called under the shard's shared
/// gate.
bool CanPruneShard(const RTree* tree, const StBox& q) {
  if (tree->num_segments() == 0) return true;
  const Result<StBox> bounds = tree->RootBounds();
  if (!bounds.ok()) return false;  // Let the traversal surface the error.
  return !bounds->Overlaps(q);
}

/// Per-frame breaker bookkeeping shared by the three runners. StartFrame
/// runs before any shard lock is held: it advances each breaker's frame
/// plane, drains the redo queue of every shard whose reads will flow this
/// frame (DrainRedo takes the exclusive gate itself; no-op at depth zero),
/// and records blocked / probe / just-reinstated per shard.
struct BreakerFramePlane {
  std::vector<uint8_t> blocked;
  std::vector<uint8_t> probe;
  /// Blocked on the previous evaluated frame, flowing on this one — the
  /// resync boundary (NPDQ histories of such shards must be forgotten).
  std::vector<uint8_t> reinstated;
  bool any_blocked = false;
  bool active = false;

  void Init(ShardedEngine* engine) {
    active = engine->failure_domains();
    const size_t n = static_cast<size_t>(engine->num_shards());
    blocked.assign(n, 0);
    probe.assign(n, 0);
    reinstated.assign(n, 0);
  }

  void StartFrame(ShardedEngine* engine) {
    if (!active) return;
    any_blocked = false;
    for (int s = 0; s < engine->num_shards(); ++s) {
      const size_t si = static_cast<size_t>(s);
      CircuitBreaker* b = engine->breaker(s);
      if (b == nullptr) continue;
      const CircuitBreaker::FrameDecision d = b->OnFrameStart();
      bool now_blocked = d.blocked;
      probe[si] = d.probe ? 1 : 0;
      if (!now_blocked) {
        // Parked writes become visible before this frame reads. A failed
        // drain re-opened the breaker; treat the frame as blocked.
        Tracer::ShardScope drain_scope(s, SpanKind::kRedoDrain);
        now_blocked = !engine->DrainRedo(s).ok();
      }
      reinstated[si] = (blocked[si] != 0 && !now_blocked) ? 1 : 0;
      blocked[si] = now_blocked ? 1 : 0;
      any_blocked |= now_blocked;
    }
  }
};

/// Wires the frame budget into every shard's hedged reader for the
/// session's lifetime (budget-cancelled frames suppress speculative second
/// probes) and unwires it on exit, so no reader is left pointing at a
/// dead FrameController. Sessions racing on one engine overwrite each
/// other's pointer — harmless for the heuristic, so concurrent *budgeted*
/// chaos runs should keep hedging off.
struct HedgeBudgetScope {
  ShardedEngine* engine = nullptr;

  HedgeBudgetScope(ShardedEngine* e, QueryBudget* budget) {
    if (!e->failure_domains() || budget == nullptr) return;
    engine = e;
    for (int s = 0; s < e->num_shards(); ++s) {
      e->shard(s).hedged->set_budget(budget);
    }
  }
  ~HedgeBudgetScope() {
    if (engine == nullptr) return;
    for (int s = 0; s < engine->num_shards(); ++s) {
      engine->shard(s).hedged->set_budget(nullptr);
    }
  }
};

/// Fold of one delivery stream on its own (order-insensitive: FoldSegments
/// sorts by key first). Copies — the stream still has to feed the merge.
uint64_t StreamChecksum(const std::vector<MotionSegment>& stream) {
  std::vector<MotionSegment> copy = stream;
  uint64_t h = kFnvOffset;
  FoldSegments(&h, &copy);
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// Merges.

std::vector<MotionSegment> MergeStreamsByEntryTime(
    std::vector<std::vector<MotionSegment>>* streams) {
  struct Cursor {
    size_t stream;
    size_t pos;
  };
  // Min-heap by (entry time, key, stream index); position order within one
  // stream is automatic (a stream's cursor advances monotonically).
  auto after = [streams](const Cursor& a, const Cursor& b) {
    const MotionSegment& ma = (*streams)[a.stream][a.pos];
    const MotionSegment& mb = (*streams)[b.stream][b.pos];
    if (ma.seg.time.lo != mb.seg.time.lo) {
      return ma.seg.time.lo > mb.seg.time.lo;
    }
    const MotionSegment::Key ka = ma.key();
    const MotionSegment::Key kb = mb.key();
    if (ka < kb) return false;
    if (kb < ka) return true;
    return a.stream > b.stream;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(after)> heap(
      after);
  size_t total = 0;
  for (size_t s = 0; s < streams->size(); ++s) {
    total += (*streams)[s].size();
    if (!(*streams)[s].empty()) heap.push(Cursor{s, 0});
  }
  std::vector<MotionSegment> out;
  out.reserve(total);
  std::unordered_set<MotionSegment::Key, MotionKeyHash> seen;
  while (!heap.empty()) {
    Cursor c = heap.top();
    heap.pop();
    MotionSegment& m = (*streams)[c.stream][c.pos];
    if (seen.insert(m.key()).second) out.push_back(std::move(m));
    if (++c.pos < (*streams)[c.stream].size()) heap.push(c);
  }
  return out;
}

std::vector<Neighbor> MergeNeighborsByDistance(
    const std::vector<std::vector<Neighbor>>& streams, size_t k) {
  std::vector<Neighbor> all;
  for (const auto& s : streams) all.insert(all.end(), s.begin(), s.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const Neighbor& a, const Neighbor& b) {
                     if (a.distance != b.distance) {
                       return a.distance < b.distance;
                     }
                     return a.motion.key() < b.motion.key();
                   });
  if (all.size() > k) all.resize(k);
  return all;
}

// ---------------------------------------------------------------------------
// Sharded session runners. Each mirrors its single-tree sibling in
// executor.cc frame for frame: same Rng draws, same shed/degrade
// decisions, same checksum folds — only the evaluation fans out.

namespace {

void RunShardedHandoff(ShardedEngine* engine, const SessionSpec& spec,
                       const ShardRouter::Options& options,
                       ShardedSessionResult* out) {
  const int n = engine->num_shards();
  SessionResult& res = out->result;
  res.checksum = kFnvOffset;
  Rng rng(spec.seed);
  Observer obs = MakeObserver(&rng, spec);
  FrameController ctl(spec, options.governor);

  std::vector<std::unique_ptr<DynamicQuerySession>> sessions;
  sessions.reserve(static_cast<size_t>(n));
  double base_horizon = DynamicQuerySession::Options{}.prediction_horizon;
  for (int s = 0; s < n; ++s) {
    DynamicQuerySession::Options sopt;
    sopt.window = spec.window;
    sopt.reader = engine->shard(s).reader();
    sopt.npdq.reader = sopt.reader;
    sopt.hot_path = spec.hot_path;
    sopt.budget = ctl.engine_budget();
    sopt.prefetcher = engine->shard(s).prefetcher.get();
    // Failure domains: a quarantined shard answers reads with IOError;
    // skip-subtree turns that into an attributed kPartial frame instead
    // of killing the whole fan-out.
    if (sopt.budget != nullptr || engine->failure_domains()) {
      sopt.fault_policy = FaultPolicy::kSkipSubtree;
    }
    base_horizon = sopt.prediction_horizon;
    sessions.push_back(std::make_unique<DynamicQuerySession>(
        engine->shard(s).tree, sopt));
  }
  HedgeBudgetScope hedge_scope(engine, ctl.engine_budget());
  BreakerFramePlane plane;
  plane.Init(engine);

  std::vector<std::vector<MotionSegment>> streams(static_cast<size_t>(n));
  for (int i = 1; i <= spec.frames; ++i) {
    const double t = spec.t0 + i * spec.frame_dt;
    obs.Advance(&rng, spec, t);
    if (options.frame_hook) options.frame_hook(i);
    if (ctl.cancelled()) break;
    if (ctl.ShedOrArm()) {
      ++res.frames_shed;
      CancelShardPrefetch(engine);
      continue;  // Next frame's [t0, t] interval covers the gap.
    }
    if (ctl.governed()) {
      for (auto& session : sessions) {
        session->set_prediction_horizon(
            std::max(1e-3, base_horizon * ctl.horizon_scale()));
      }
    }
    // The frame scope opens before breaker/redo work so the merged trace
    // captures redo drains and gate waits, not just shard evaluation.
    Tracer::FrameScope frame_scope(spec.seed, static_cast<uint64_t>(i));
    plane.StartFrame(engine);
    FrameLatencyScope latency(spec, &res);
    auto locks = LockAllShards(engine);
    bool partial = false;
    bool failed = false;
    std::vector<uint64_t> shard_cs;
    if (options.record_frames) {
      shard_cs.assign(static_cast<size_t>(n), kFnvOffset);
    }
    for (int s = 0; s < n; ++s) {
      Tracer::ShardScope shard_scope(s);
      const size_t si = static_cast<size_t>(s);
      streams[si].clear();
      const uint64_t skips0 =
          plane.active ? sessions[si]->skip_report().pages_skipped() : 0;
      auto frame = sessions[si]->OnFrame(t, obs.pos, obs.vel);
      if (!frame.ok()) {
        res.status = frame.status();
        failed = true;
        break;
      }
      partial |= frame->integrity == ResultIntegrity::kPartial;
      if (plane.active && plane.probe[si] != 0) {
        // Probe verdict: the frame ran end to end without a single new
        // skip. One bad probe re-opens; a streak of good ones closes.
        engine->breaker(s)->OnProbeOutcome(
            sessions[si]->skip_report().pages_skipped() == skips0);
      }
      SortStreamByEntryTime(&frame->fresh);
      if (options.record_frames) shard_cs[si] = StreamChecksum(frame->fresh);
      streams[si] = std::move(frame->fresh);
    }
    if (failed) break;
    RouterMetrics::Get().fanout_width->Record(static_cast<uint64_t>(n));
    std::vector<MotionSegment> merged = [&] {
      Tracer::SpanScope merge_span(SpanKind::kMerge,
                                   static_cast<uint64_t>(n));
      return MergeStreamsByEntryTime(&streams);
    }();
    FoldU64(&res.checksum, static_cast<uint64_t>(i));
    FoldSegments(&res.checksum, &merged);
    res.objects_delivered += merged.size();
    ++res.frames_completed;
    if (partial) {
      ++out->frames_partial;
      RouterMetrics::Get().frames_partial->Add();
    }
    if (plane.any_blocked) {
      ++out->frames_quarantined;
      HealthMetrics::Get().quarantined_frames->Add();
    }
    if (options.record_frames) {
      ShardedSessionResult::FrameRecord rec;
      rec.frame = i;
      rec.partial = partial;
      rec.shard_blocked = plane.blocked;
      rec.shard_checksums = std::move(shard_cs);
      uint64_t h = kFnvOffset;
      FoldU64(&h, static_cast<uint64_t>(i));
      FoldSegments(&h, &merged);
      rec.merged_checksum = h;
      out->frames.push_back(std::move(rec));
    }
    if (ctl.FrameDegraded()) ++res.frames_degraded;
    ctl.EndFrame();
  }
  server_internal::FinishSession(&res, ctl);
  out->shard_stats.resize(static_cast<size_t>(n));
  out->shard_skips.resize(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    out->shard_stats[static_cast<size_t>(s)] =
        sessions[static_cast<size_t>(s)]->TotalStats();
    out->shard_skips[static_cast<size_t>(s)].Merge(
        sessions[static_cast<size_t>(s)]->skip_report());
    res.stats += out->shard_stats[static_cast<size_t>(s)];
  }
}

void RunShardedNpdq(ShardedEngine* engine, const SessionSpec& spec,
                    const ShardRouter::Options& options,
                    ShardedSessionResult* out) {
  const int n = engine->num_shards();
  SessionResult& res = out->result;
  res.checksum = kFnvOffset;
  Rng rng(spec.seed);
  Observer obs = MakeObserver(&rng, spec);
  FrameController ctl(spec, options.governor);

  std::vector<std::unique_ptr<NonPredictiveDynamicQuery>> npdq;
  npdq.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    NpdqOptions nopt;
    nopt.reader = engine->shard(s).reader();
    nopt.hot_path = spec.hot_path;
    nopt.budget = ctl.engine_budget();
    nopt.prefetcher = engine->shard(s).prefetcher.get();
    if (nopt.budget != nullptr || engine->failure_domains()) {
      nopt.fault_policy = FaultPolicy::kSkipSubtree;
    }
    npdq.push_back(std::make_unique<NonPredictiveDynamicQuery>(
        engine->shard(s).tree, nopt));
  }
  HedgeBudgetScope hedge_scope(engine, ctl.engine_budget());
  BreakerFramePlane plane;
  plane.Init(engine);
  out->shard_stats.resize(static_cast<size_t>(n));
  out->shard_skips.resize(static_cast<size_t>(n));

  std::vector<std::vector<MotionSegment>> streams(static_cast<size_t>(n));
  double prev_t = spec.t0;
  for (int i = 1; i <= spec.frames; ++i) {
    const double t = spec.t0 + i * spec.frame_dt;
    obs.Advance(&rng, spec, t);
    if (options.frame_hook) options.frame_hook(i);
    if (ctl.cancelled()) break;
    if (ctl.ShedOrArm()) {
      ++res.frames_shed;
      CancelShardPrefetch(engine);
      continue;  // prev_t stays: the next snapshot covers the gap.
    }
    Tracer::FrameScope frame_scope(spec.seed, static_cast<uint64_t>(i));
    plane.StartFrame(engine);
    if (plane.active) {
      for (int s = 0; s < n; ++s) {
        // Quarantined frames left this shard's "previous" snapshots
        // incomplete; anything they masked must not stay lost. Forgetting
        // the history makes the first flowing frame a full re-delivery —
        // the resync after which the merged stream is byte-identical to a
        // never-faulted engine's.
        if (plane.reinstated[static_cast<size_t>(s)] != 0) {
          npdq[static_cast<size_t>(s)]->ResetHistory();
        }
      }
    }
    const StBox q(Box::Centered(obs.pos, spec.window), Interval(prev_t, t));
    FrameLatencyScope latency(spec, &res);
    auto locks = LockAllShards(engine);
    uint64_t evaluated = 0;
    bool partial = false;
    bool failed = false;
    std::vector<uint64_t> shard_cs;
    if (options.record_frames) {
      shard_cs.assign(static_cast<size_t>(n), kFnvOffset);
    }
    for (int s = 0; s < n; ++s) {
      Tracer::ShardScope shard_scope(s);
      const size_t si = static_cast<size_t>(s);
      streams[si].clear();
      if (options.spatial_prune &&
          CanPruneShard(engine->shard(s).tree, q)) {
        // The shard provably matches nothing; install q as its previous
        // snapshot so later deltas stay exact.
        npdq[si]->NoteSkippedSnapshot(q);
        ++out->shard_frames_pruned;
        RouterMetrics::Get().frames_pruned->Add();
        continue;
      }
      ++evaluated;
      auto fresh = npdq[si]->Execute(q);
      if (!fresh.ok()) {
        res.status = fresh.status();
        failed = true;
        break;
      }
      partial |= npdq[si]->integrity() == ResultIntegrity::kPartial;
      if (plane.active && plane.probe[si] != 0) {
        engine->breaker(s)->OnProbeOutcome(
            npdq[si]->skip_report().pages_skipped() == 0);
      }
      out->shard_skips[si].Merge(npdq[si]->skip_report());
      SortStreamByEntryTime(&*fresh);
      if (options.record_frames) shard_cs[si] = StreamChecksum(*fresh);
      streams[si] = std::move(*fresh);
    }
    if (failed) break;
    RouterMetrics::Get().fanout_width->Record(evaluated);
    std::vector<MotionSegment> merged = [&] {
      Tracer::SpanScope merge_span(SpanKind::kMerge, evaluated);
      return MergeStreamsByEntryTime(&streams);
    }();
    FoldU64(&res.checksum, static_cast<uint64_t>(i));
    FoldSegments(&res.checksum, &merged);
    res.objects_delivered += merged.size();
    ++res.frames_completed;
    prev_t = t;
    if (partial) {
      ++out->frames_partial;
      RouterMetrics::Get().frames_partial->Add();
    }
    if (plane.any_blocked) {
      ++out->frames_quarantined;
      HealthMetrics::Get().quarantined_frames->Add();
    }
    if (options.record_frames) {
      ShardedSessionResult::FrameRecord rec;
      rec.frame = i;
      rec.partial = partial;
      rec.shard_blocked = plane.blocked;
      rec.shard_checksums = std::move(shard_cs);
      uint64_t h = kFnvOffset;
      FoldU64(&h, static_cast<uint64_t>(i));
      FoldSegments(&h, &merged);
      rec.merged_checksum = h;
      out->frames.push_back(std::move(rec));
    }
    if (ctl.FrameDegraded()) {
      ++res.frames_degraded;
      // An incomplete merged snapshot must not mask later frames in any
      // shard (the single-tree runner resets its whole history too).
      for (auto& q_shard : npdq) q_shard->ResetHistory();
    }
    ctl.EndFrame();
  }
  server_internal::FinishSession(&res, ctl);
  for (int s = 0; s < n; ++s) {
    out->shard_stats[static_cast<size_t>(s)] =
        npdq[static_cast<size_t>(s)]->stats();
    res.stats += out->shard_stats[static_cast<size_t>(s)];
  }
}

void RunShardedKnn(ShardedEngine* engine, const SessionSpec& spec,
                   const ShardRouter::Options& options,
                   ShardedSessionResult* out) {
  const int n = engine->num_shards();
  SessionResult& res = out->result;
  res.checksum = kFnvOffset;
  Rng rng(spec.seed);
  Observer obs = MakeObserver(&rng, spec);
  FrameController ctl(spec, options.governor);
  HedgeBudgetScope hedge_scope(engine, ctl.engine_budget());
  BreakerFramePlane plane;
  plane.Init(engine);

  // Every shard answers each frame with a stateless full KnnAt search, NOT
  // a per-shard MovingKnnQuery fence cache. The fence argument ("anything
  // outside the cached candidates was farther than the fence at cache time
  // and cannot have closed the gap") is only sound for objects whose
  // alive-at-cache-time segment lives in the SAME tree: a segment rollover
  // that crosses a grid cell or speed class makes the object appear in a
  // shard whose cache never saw it, with no distance constraint at all, so
  // a shard-local fence would silently drop true neighbors. A stateless
  // search per shard is exact by construction; the merged global top-k is
  // exact because every true global neighbor is in its own shard's local
  // top-k.
  std::vector<QueryStats> stats(static_cast<size_t>(n));
  out->shard_stats.resize(static_cast<size_t>(n));
  out->shard_skips.resize(static_cast<size_t>(n));

  std::vector<std::vector<Neighbor>> candidates(static_cast<size_t>(n));
  for (int i = 1; i <= spec.frames; ++i) {
    const double t = spec.t0 + i * spec.frame_dt;
    obs.Advance(&rng, spec, t);
    if (options.frame_hook) options.frame_hook(i);
    if (ctl.cancelled()) break;
    if (ctl.ShedOrArm()) {
      ++res.frames_shed;
      CancelShardPrefetch(engine);
      continue;
    }
    Tracer::FrameScope frame_scope(spec.seed, static_cast<uint64_t>(i));
    plane.StartFrame(engine);
    FrameLatencyScope latency(spec, &res);
    auto locks = LockAllShards(engine);
    bool partial = false;
    bool failed = false;
    std::vector<uint64_t> shard_cs;
    if (options.record_frames) {
      shard_cs.assign(static_cast<size_t>(n), kFnvOffset);
    }
    for (int s = 0; s < n; ++s) {
      const size_t si = static_cast<size_t>(s);
      Tracer::ShardScope shard_scope(s);
      SkipReport frame_skip;
      KnnOptions kopt;
      kopt.reader = engine->shard(s).reader();
      kopt.hot_path = spec.hot_path;
      kopt.budget = ctl.engine_budget();
      kopt.prefetcher = engine->shard(s).prefetcher.get();
      kopt.skip_report = &frame_skip;
      if (kopt.budget != nullptr || engine->failure_domains()) {
        kopt.fault_policy = FaultPolicy::kSkipSubtree;
      }
      auto neighbors = KnnAt(*engine->shard(s).tree, obs.pos, t, spec.k,
                             &stats[si], kopt);
      if (!neighbors.ok()) {
        res.status = neighbors.status();
        failed = true;
        break;
      }
      partial |= frame_skip.pages_skipped() > 0;
      if (plane.active && plane.probe[si] != 0) {
        engine->breaker(s)->OnProbeOutcome(frame_skip.pages_skipped() == 0);
      }
      out->shard_skips[si].Merge(frame_skip);
      candidates[si] = std::move(*neighbors);
      if (options.record_frames) {
        uint64_t h = kFnvOffset;
        for (const Neighbor& nb : candidates[si]) {
          FoldU64(&h, nb.motion.oid);
          FoldDouble(&h, nb.distance);
        }
        shard_cs[si] = h;
      }
    }
    if (failed) break;
    RouterMetrics::Get().fanout_width->Record(static_cast<uint64_t>(n));
    std::vector<Neighbor> merged = [&] {
      Tracer::SpanScope merge_span(SpanKind::kMerge,
                                   static_cast<uint64_t>(n));
      return MergeNeighborsByDistance(candidates,
                                      static_cast<size_t>(spec.k));
    }();
    FoldU64(&res.checksum, static_cast<uint64_t>(i));
    for (const Neighbor& nb : merged) {
      FoldU64(&res.checksum, nb.motion.oid);
      FoldDouble(&res.checksum, nb.distance);
    }
    res.objects_delivered += merged.size();
    ++res.frames_completed;
    if (partial) {
      ++out->frames_partial;
      RouterMetrics::Get().frames_partial->Add();
    }
    if (plane.any_blocked) {
      ++out->frames_quarantined;
      HealthMetrics::Get().quarantined_frames->Add();
    }
    if (options.record_frames) {
      ShardedSessionResult::FrameRecord rec;
      rec.frame = i;
      rec.partial = partial;
      rec.shard_blocked = plane.blocked;
      rec.shard_checksums = std::move(shard_cs);
      uint64_t h = kFnvOffset;
      FoldU64(&h, static_cast<uint64_t>(i));
      for (const Neighbor& nb : merged) {
        FoldU64(&h, nb.motion.oid);
        FoldDouble(&h, nb.distance);
      }
      rec.merged_checksum = h;
      out->frames.push_back(std::move(rec));
    }
    if (ctl.FrameDegraded()) ++res.frames_degraded;
    ctl.EndFrame();
  }
  server_internal::FinishSession(&res, ctl);
  for (int s = 0; s < n; ++s) {
    out->shard_stats[static_cast<size_t>(s)] = stats[static_cast<size_t>(s)];
    res.stats += out->shard_stats[static_cast<size_t>(s)];
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardRouter.

ShardedSessionResult ShardRouter::RunOne(const SessionSpec& spec) const {
  const uint64_t tick = TickNs();
  ShardedSessionResult out;
  switch (spec.kind) {
    case SessionKind::kNpdq:
      RunShardedNpdq(engine_, spec, options_, &out);
      break;
    case SessionKind::kKnn:
      RunShardedKnn(engine_, spec, options_, &out);
      break;
    case SessionKind::kSession:
      RunShardedHandoff(engine_, spec, options_, &out);
      break;
  }
  ExecMetrics& em = ExecMetrics::Get();
  em.session_ns->RecordSince(tick);
  em.sessions->Add();
  em.session_objects->Add(out.result.objects_delivered);
  RouterMetrics::Get().sessions->Add();
  return out;
}

ExecutorReport ShardRouter::Run(const std::vector<SessionSpec>& specs) const {
  uint64_t hits0 = 0, misses0 = 0;
  for (int s = 0; s < engine_->num_shards(); ++s) {
    hits0 += engine_->shard(s).pool->hits();
    misses0 += engine_->shard(s).pool->misses();
  }

  server_internal::ScheduleOptions sched;
  sched.num_threads = options_.num_threads;
  sched.max_queue = options_.max_queue;
  sched.admission = options_.admission;
  sched.governor = options_.governor;
  ExecutorReport report = server_internal::RunScheduledSessions(
      specs, sched,
      [this](const SessionSpec& spec) { return RunOne(spec).result; });

  uint64_t hits1 = 0, misses1 = 0;
  for (int s = 0; s < engine_->num_shards(); ++s) {
    hits1 += engine_->shard(s).pool->hits();
    misses1 += engine_->shard(s).pool->misses();
  }
  report.pool_hits = hits1 - hits0;
  report.pool_misses = misses1 - misses0;
  return report;
}

}  // namespace dqmo
