// Workload definitions, engine set-up and the closed-loop session loops.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <shared_mutex>
#include <thread>

#include "geom/box.h"
#include "perfbench.h"
#include "query/npdq.h"
#include "query/session.h"
#include "server/session_runner.h"

namespace perfbench {

using namespace dqmo;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL) ^
               (c * 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int KindIndex(SessionKind kind) {
  switch (kind) {
    case SessionKind::kSession:
      return 0;
    case SessionKind::kNpdq:
      return 1;
    case SessionKind::kKnn:
      return 2;
  }
  return 0;
}

const char* KindName(SessionKind kind) {
  switch (kind) {
    case SessionKind::kSession:
      return "session";
    case SessionKind::kNpdq:
      return "npdq";
    case SessionKind::kKnn:
      return "knn";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Workloads. The paper's data set (5000 objects, 100x100, 100 time units,
// about 0.5M segments) under three engine configurations that stress
// different layers; README.md gives the reasons and the sizes.

namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;
  {
    // Everything cached: the index is about 6.5k pages, so pool and node
    // cache hold all of it and the time goes to the query engines. Three
    // client threads, so that a machine of four cores keeps one for
    // everything else (with four, any other runnable task preempts a
    // client mid-frame). The updates after t = 80 go in between the read
    // windows.
    WorkloadSpec w;
    w.name = "hot_3t";
    w.threads = 3;
    w.pool_pages = 16384;
    w.cache_nodes = 16384;
    w.frames = 40;
    w.window = 8.0;
    all.push_back(w);
  }
  {
    // A page budget of about 3% of the index and a few dozen decoded
    // nodes: short sessions at random places miss the pool and read
    // through the pread backend, with prefetch at its default depth. The
    // updates after t = 80 go through the WAL between the read windows.
    WorkloadSpec w;
    w.name = "cold_jump";
    w.durable = true;
    w.backend = IoBackend::kPread;
    w.pool_pages = 192;
    w.cache_nodes = 32;
    w.frames = 10;
    w.window = 20.0;
    all.push_back(w);
  }
  {
    // Sixteen in-memory shards; the updates after t = 30 are inserted
    // during the timed phase, one small batch before every frame, while
    // sessions query the times being ingested. A durable copy with live
    // pages in memory takes the first updates afterwards, untimed.
    WorkloadSpec w;
    w.name = "ingest_sharded";
    w.shards = 16;
    w.pool_pages = 1024;
    w.cache_nodes = 512;
    w.frames = 20;
    w.window = 8.0;
    w.base_cutoff = 30.0;
    w.ingest_batch = 2;
    w.oracle_sessions_per_kind = 3;
    all.push_back(w);
  }
  return all;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

[[noreturn]] void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(1);
}

std::string ShardImagePath(const std::string& dir, int shard) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04d.pgf", shard);
  return dir + "/" + name;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : Workloads()) names.push_back(w.name);
  return names;
}

size_t UpdateBatchSize(const WorkloadSpec& w, size_t pending) {
  const size_t n = static_cast<size_t>(
      std::max(1L, std::lround((100.0 - w.base_cutoff) / w.frame_dt)));
  return std::max<size_t>(1, (pending + n - 1) / n);
}

ShardedEngineOptions EngineOptions(const WorkloadSpec& w,
                                   const std::string& durable_dir) {
  // Every option is set here; ShardedEngineOptions::FromEnv is never used.
  // Fields not named keep the shipped defaults (prefetch depth among them).
  ShardedEngineOptions o;
  o.num_shards = w.shards;
  o.space_size = 100.0;
  o.speed_split = true;
  o.speed_split_threshold = 1.5;
  o.pool_pages = w.pool_pages;
  o.pool_shards = 4;
  o.cache_nodes = w.cache_nodes;
  o.durable_dir = w.durable ? durable_dir : std::string();
  o.io_backend = w.durable ? w.backend : IoBackend::kMemory;
  o.o_direct = false;
  o.page_budget_mb = 0;
  o.failure_domains = false;
  return o;
}

std::unique_ptr<ShardedEngine> BuildEngine(
    const WorkloadSpec& w, const std::vector<MotionSegment>& base,
    const std::string& dir, SetupTimes* times) {
  std::vector<MotionSegment> input = base;  // BulkLoad consumes its input.
  const uint64_t t0 = NowNs();
  auto created = ShardedEngine::Create(EngineOptions(w, ""));
  if (!created.ok()) Die("Create", created.status());
  std::unique_ptr<ShardedEngine> engine = std::move(*created);
  const uint64_t t1 = NowNs();
  Status st = engine->BulkLoad(std::move(input));
  if (!st.ok()) Die("BulkLoad", st);
  const uint64_t t2 = NowNs();
  times->create_s = static_cast<double>(t1 - t0) * 1e-9;
  times->bulk_load_s = static_cast<double>(t2 - t1) * 1e-9;
  if (!w.durable) return engine;

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) Die("mkdir " + dir, Status::IOError(ec.message()));
  const uint64_t t3 = NowNs();
  for (int s = 0; s < engine->num_shards(); ++s) {
    st = engine->shard(s).file->SaveTo(ShardImagePath(dir, s));
    if (!st.ok()) Die("checkpoint image", st);
  }
  const uint64_t t4 = NowNs();
  engine.reset();
  const uint64_t t5 = NowNs();
  auto reopened = ShardedEngine::Create(EngineOptions(w, dir));
  if (!reopened.ok()) Die("durable reopen", reopened.status());
  const uint64_t t6 = NowNs();
  times->checkpoint_s = static_cast<double>(t4 - t3) * 1e-9;
  times->open_s = static_cast<double>(t6 - t5) * 1e-9;
  if ((*reopened)->num_segments() != base.size()) {
    Die("durable reopen", Status::Corruption("segment count differs"));
  }
  return std::move(*reopened);
}

void WarmCaches(ShardedEngine* engine) {
  const StBox everything(Box::Centered(Vec(50.0, 50.0), 1e6),
                         Interval(-1e6, 1e6));
  for (int s = 0; s < engine->num_shards(); ++s) {
    ShardedEngine::Shard& sh = engine->shard(s);
    auto lock = sh.gate->LockShared();
    NpdqOptions no;
    no.reader = sh.reader();
    NonPredictiveDynamicQuery scan(sh.tree, no);
    auto all = scan.Execute(everything);
    if (!all.ok()) Die("cache warm-up", all.status());
  }
}

// ---------------------------------------------------------------------------
// FrameClock.

void FrameClock::Begin() {
  durations_.clear();
  excluded_ = 0;
  start_ = NowNs();
}

void FrameClock::Top(int frame) {
  if (frame > 1) Close(NowNs());
}

void FrameClock::Open(int frame) {
  // Frame 1 runs from Begin (session construction is part of starting a
  // query); later frames from the end of the hook's own work.
  if (frame > 1) {
    excluded_ = 0;
    start_ = NowNs();
  }
}

void FrameClock::End() { Close(NowNs()); }

void FrameClock::Close(uint64_t now) {
  durations_.push_back(now - start_ - excluded_);
  excluded_ = 0;
}

// ---------------------------------------------------------------------------
// UpdateStream.

uint64_t UpdateStream::InsertNext() {
  if (exhausted()) return 0;
  const size_t end = std::min(next_ + batch_, rest_->size());
  scratch_.assign(rest_->begin() + static_cast<long>(next_),
                  rest_->begin() + static_cast<long>(end));
  std::vector<uint8_t> touched(static_cast<size_t>(engine_->num_shards()), 0);
  for (const MotionSegment& m : scratch_) {
    touched[static_cast<size_t>(engine_->map().ShardOf(m))] = 1;
  }
  const uint64_t t0 = NowNs();
  const Status st = engine_->InsertBatch(scratch_);
  const uint64_t d = NowNs() - t0;
  ++stats_.batches;
  stats_.updates += scratch_.size();
  stats_.insert_ns += d;
  stats_.ack_ns.push_back(d);
  stats_.shards_touched +=
      static_cast<uint64_t>(std::count(touched.begin(), touched.end(), 1));
  if (!st.ok()) {
    ++stats_.failed;
    std::fprintf(stderr, "perfbench: InsertBatch: %s\n",
                 st.ToString().c_str());
  }
  next_ = end;
  return d;
}

double UpdateStream::front() const {
  return exhausted() ? rest_->back().seg.time.lo : (*rest_)[next_].seg.time.lo;
}

// ---------------------------------------------------------------------------
// Session specs.

SessionSpec MakeSpec(const WorkloadSpec& w, uint64_t seed, uint64_t stream,
                     int thread, uint64_t index,
                     const UpdateStream* updates) {
  Rng rng(Mix(seed, stream * 64 + static_cast<uint64_t>(thread), index));
  SessionSpec spec;
  // Equal shares of the three kinds, rotated per client thread.
  spec.kind = kKindOrder[(index + static_cast<uint64_t>(thread)) % kKinds];
  spec.seed = rng.NextU64();
  spec.frames = w.frames;
  spec.frame_dt = w.frame_dt;
  spec.window = w.window;
  spec.k = w.k;
  const double span = w.frames * w.frame_dt;
  if (updates != nullptr) {
    // Query the times being ingested: the session straddles the front.
    const double hi = 100.0 - span - 0.5;
    spec.t0 = std::clamp(updates->front() - 0.5 * span, w.base_cutoff, hi);
  } else {
    // Read the settled past: the update phases insert the segments that
    // start at or after base_cutoff.
    spec.t0 = rng.Uniform(1.0, w.base_cutoff - span - 1.0);
  }
  return spec;
}

// ---------------------------------------------------------------------------
// LoopStats.

void LoopStats::Merge(LoopStats&& o) {
  sessions += o.sessions;
  frames += o.frames;
  failed_sessions += o.failed_sessions;
  wall_ns = std::max(wall_ns, o.wall_ns);
  first_ns.insert(first_ns.end(), o.first_ns.begin(), o.first_ns.end());
  for (int k = 0; k < kKinds; ++k) {
    frame_ns[k].insert(frame_ns[k].end(), o.frame_ns[k].begin(),
                       o.frame_ns[k].end());
    kind_frames[k] += o.kind_frames[k];
    kind_stats[k] += o.kind_stats[k];
    kind_ns[k] += o.kind_ns[k];
    kind_read_ns[k] += o.kind_read_ns[k];
    kind_traced_frames[k] += o.kind_traced_frames[k];
  }
  objects += o.objects;
  shard_evals += o.shard_evals;
  sampled.insert(sampled.end(), o.sampled.begin(), o.sampled.end());
  failures.insert(failures.end(), o.failures.begin(), o.failures.end());
  reads.Add(o.reads);
  predictive_frames += o.predictive_frames;
  traced_session_ns += o.traced_session_ns;
  traced_session_frames += o.traced_session_frames;
  plain_session_ns += o.plain_session_ns;
  plain_session_frames += o.plain_session_frames;
}

namespace {

/// Records one finished session's frame times into `st`.
void RecordFrames(SessionKind kind, const std::vector<uint64_t>& d,
                  LoopStats* st) {
  if (d.empty()) return;
  st->first_ns.push_back(d[0]);
  std::vector<uint64_t>& v = st->frame_ns[KindIndex(kind)];
  v.insert(v.end(), d.begin() + 1, d.end());
}

/// Runs `body(thread, stats, deadline)` on `threads` client threads that
/// start together, and merges what they recorded.
template <typename Body>
LoopStats RunThreads(int threads, double seconds, Body body) {
  std::vector<LoopStats> per(static_cast<size_t>(threads));
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  for (int th = 0; th < threads; ++th) {
    pool.emplace_back([&, th] {
      LoopStats& st = per[static_cast<size_t>(th)];
      body(th, &st, deadline);
      st.wall_ns = NowNs() - start;
    });
  }
  for (std::thread& t : pool) t.join();
  LoopStats all;
  for (LoopStats& st : per) all.Merge(std::move(st));
  return all;
}

}  // namespace

LoopStats RunRouterLoop(const LoopConfig& cfg) {
  const WorkloadSpec& w = *cfg.w;
  const int n = cfg.engine->num_shards();
  return RunThreads(w.threads, cfg.seconds, [&](int th, LoopStats* st,
                                                uint64_t deadline) {
    FrameClock clock;
    ShardRouter::Options ro;
    ro.num_threads = 1;
    ro.frame_hook = [&clock, &cfg](int frame) {
      clock.Top(frame);
      if (cfg.updates != nullptr) clock.Exclude(cfg.updates->InsertNext());
      clock.Open(frame);
    };
    ShardRouter router(cfg.engine, ro);
    for (uint64_t j = 0; NowNs() < deadline; ++j) {
      if (cfg.updates != nullptr && cfg.updates->exhausted()) break;
      const SessionSpec spec =
          MakeSpec(w, cfg.seed, cfg.stream, th, j, cfg.updates);
      clock.Begin();
      ShardedSessionResult r = router.RunOne(spec);
      clock.End();
      const SessionResult& res = r.result;
      const std::vector<uint64_t>& d = clock.durations();
      const bool ok = res.status.ok() &&
                      res.outcome == SessionResult::Outcome::kCompleted &&
                      res.frames_completed ==
                          static_cast<uint64_t>(spec.frames) &&
                      res.frames_shed == 0 && res.frames_degraded == 0 &&
                      r.frames_partial == 0 &&
                      d.size() == static_cast<size_t>(spec.frames);
      ++st->sessions;
      if (!ok) {
        ++st->failed_sessions;
        st->failures.push_back(
            std::string("session ") + KindName(spec.kind) + " seed " +
            std::to_string(spec.seed) + " incomplete: " +
            res.status.ToString() + ", " +
            std::to_string(res.frames_completed) + " frames, " +
            std::to_string(r.frames_partial) + " partial, " +
            std::to_string(res.frames_shed) + " shed");
        continue;
      }
      const int kind = KindIndex(spec.kind);
      RecordFrames(spec.kind, d, st);
      st->frames += res.frames_completed;
      st->kind_frames[kind] += res.frames_completed;
      st->kind_stats[kind] += res.stats;
      st->objects += res.objects_delivered;
      st->shard_evals +=
          res.frames_completed * static_cast<uint64_t>(n) -
          r.shard_frames_pruned;
      if (st->sampled.size() < cfg.sample_per_thread && j % 7 == 3) {
        st->sampled.push_back(SampledSession{spec, res.checksum,
                                             res.frames_completed,
                                             res.objects_delivered});
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Traced pass.

namespace {

/// Forwards every page read to the shard's pool and times it, split by
/// whether the pool had to read the store.
class TimedReader : public PageReader {
 public:
  explicit TimedReader(PageReader* inner) : inner_(inner) {}

  Result<ReadResult> Read(PageId id) override {
    const uint64_t t0 = NowNs();
    Result<ReadResult> r = inner_->Read(id);
    const uint64_t d = NowNs() - t0;
    if (r.ok() && r->physical) {
      ++times.physical;
      times.physical_ns += d;
    } else {
      ++times.hits;
      times.hit_ns += d;
    }
    return r;
  }

  ReadTimes times;

 private:
  PageReader* inner_;
};

}  // namespace

LoopStats RunTracedLoop(const LoopConfig& cfg) {
  const WorkloadSpec& w = *cfg.w;
  return RunThreads(w.threads, cfg.seconds, [&](int th, LoopStats* st,
                                                uint64_t deadline) {
    std::vector<std::unique_ptr<TimedReader>> readers;
    std::vector<PageReader*> timed_readers;
    for (int s = 0; s < cfg.engine->num_shards(); ++s) {
      readers.push_back(
          std::make_unique<TimedReader>(cfg.engine->shard(s).reader()));
      timed_readers.push_back(readers.back().get());
    }
    DirectOptions o;
    o.window = w.window;
    o.k = w.k;
    o.spatial_prune = true;
    FrameClock clock;
    o.hook = [&clock, &cfg](int frame) {
      clock.Top(frame);
      if (cfg.updates != nullptr) clock.Exclude(cfg.updates->InsertNext());
      clock.Open(frame);
    };
    for (uint64_t j = 0; NowNs() < deadline; ++j) {
      if (cfg.updates != nullptr && cfg.updates->exhausted()) break;
      const SessionSpec spec =
          MakeSpec(w, cfg.seed, cfg.stream, th, j, cfg.updates);
      const ObserverPath path = PathOf(spec);
      const bool traced = j % 2 == 0;
      o.kind = spec.kind;
      o.readers = traced ? timed_readers : std::vector<PageReader*>();
      uint64_t read_ns0 = 0;
      for (const auto& r : readers) read_ns0 += r->times.total_ns();
      clock.Begin();
      const DirectResult res = RunDirect(cfg.engine, path, o);
      clock.End();
      uint64_t read_ns1 = 0;
      for (const auto& r : readers) read_ns1 += r->times.total_ns();
      ++st->sessions;
      if (!res.ok) {
        ++st->failed_sessions;
        st->failures.push_back("traced session: " + res.error);
        continue;
      }
      const int kind = KindIndex(spec.kind);
      const std::vector<uint64_t>& d = clock.durations();
      uint64_t total = 0;
      for (uint64_t x : d) total += x;
      st->frames += res.frames;
      st->kind_frames[kind] += res.frames;
      st->kind_stats[kind] += res.stats;
      st->objects += res.objects;
      st->shard_evals += res.shard_evals;
      if (spec.kind == SessionKind::kSession) {
        st->predictive_frames += res.predictive_frames;
      }
      if (traced) {
        st->kind_ns[kind] += total;
        st->kind_read_ns[kind] += read_ns1 - read_ns0;
        st->kind_traced_frames[kind] += res.frames;
        st->traced_session_ns += total;
        st->traced_session_frames += res.frames;
      } else {
        st->plain_session_ns += total;
        st->plain_session_frames += res.frames;
      }
    }
    for (const auto& r : readers) st->reads.Add(r->times);
  });
}

// ---------------------------------------------------------------------------
// Observer paths and direct execution.

ObserverPath PathOf(const SessionSpec& spec) {
  // The same Rng draws as the router's session runners.
  Rng rng(spec.seed);
  server_internal::Observer obs = server_internal::MakeObserver(&rng, spec);
  ObserverPath path;
  path.t0 = spec.t0;
  for (int i = 1; i <= spec.frames; ++i) {
    const double t = spec.t0 + i * spec.frame_dt;
    obs.Advance(&rng, spec, t);
    path.t.push_back(t);
    path.pos.push_back(obs.pos);
    path.vel.push_back(obs.vel);
  }
  return path;
}

DirectResult RunDirect(ShardedEngine* engine, const ObserverPath& path,
                       const DirectOptions& o) {
  const int n = engine->num_shards();
  const size_t nn = static_cast<size_t>(n);
  DirectResult res;
  std::vector<PageReader*> readers(nn);
  for (size_t s = 0; s < nn; ++s) {
    readers[s] = s < o.readers.size() && o.readers[s] != nullptr
                     ? o.readers[s]
                     : engine->shard(static_cast<int>(s)).reader();
  }
  std::vector<std::unique_ptr<DynamicQuerySession>> sessions;
  std::vector<std::unique_ptr<NonPredictiveDynamicQuery>> npdq;
  std::vector<QueryStats> knn_stats(nn);
  for (int s = 0; s < n; ++s) {
    ShardedEngine::Shard& sh = engine->shard(s);
    if (o.kind == SessionKind::kSession) {
      DynamicQuerySession::Options so;
      so.window = o.window;
      so.reader = readers[static_cast<size_t>(s)];
      so.npdq.reader = so.reader;
      so.prefetcher = sh.prefetcher.get();
      sessions.push_back(std::make_unique<DynamicQuerySession>(sh.tree, so));
    } else if (o.kind == SessionKind::kNpdq) {
      NpdqOptions no;
      no.reader = readers[static_cast<size_t>(s)];
      no.prefetcher = sh.prefetcher.get();
      npdq.push_back(std::make_unique<NonPredictiveDynamicQuery>(sh.tree, no));
    }
  }
  // Root bounds per shard, refreshed when the shard's stamp moves.
  std::vector<std::pair<UpdateStamp, StBox>> bounds(nn);
  std::vector<uint8_t> bounds_valid(nn, 0);
  std::vector<std::vector<Neighbor>> candidates(nn);

  DirectFrame frame;
  const int frames = static_cast<int>(path.t.size());
  // NPDQ frame 1 covers [t0, t0 + dt], as in the router.
  double prev_t = path.t0;
  for (int i = 1; i <= frames; ++i) {
    const size_t fi = static_cast<size_t>(i - 1);
    const double t = path.t[fi];
    const Vec& pos = path.pos[fi];
    if (o.hook) o.hook(i);
    frame.index = i;
    frame.t0 = prev_t;
    frame.t = t;
    frame.segments.clear();
    frame.neighbors.clear();
    frame.predictive = false;
    frame.partial = false;
    {
      std::vector<std::shared_lock<std::shared_mutex>> locks;
      locks.reserve(nn);
      for (int s = 0; s < n; ++s) {
        locks.push_back(engine->shard(s).gate->LockShared());
      }
      for (int s = 0; s < n; ++s) {
        const size_t si = static_cast<size_t>(s);
        RTree* tree = engine->shard(s).tree;
        if (o.kind == SessionKind::kSession) {
          auto r = sessions[si]->OnFrame(t, pos, path.vel[fi]);
          if (!r.ok()) {
            res.ok = false;
            res.error = r.status().ToString();
            return res;
          }
          if (s == 0) {
            frame.predictive =
                r->mode == DynamicQuerySession::Mode::kPredictive;
          }
          frame.partial |= r->integrity == ResultIntegrity::kPartial;
          frame.segments.insert(frame.segments.end(), r->fresh.begin(),
                                r->fresh.end());
          ++res.shard_evals;
        } else if (o.kind == SessionKind::kNpdq) {
          const StBox q(Box::Centered(pos, o.window), Interval(prev_t, t));
          if (o.spatial_prune) {
            bool prune = tree->num_segments() == 0;
            if (!prune) {
              if (bounds_valid[si] == 0 || bounds[si].first != tree->stamp()) {
                auto b = tree->RootBounds();
                if (b.ok()) {
                  bounds[si] = {tree->stamp(), *b};
                  bounds_valid[si] = 1;
                }
              }
              prune = bounds_valid[si] != 0 &&
                      bounds[si].first == tree->stamp() &&
                      !bounds[si].second.Overlaps(q);
            }
            if (prune) {
              npdq[si]->NoteSkippedSnapshot(q);
              continue;
            }
          }
          auto fresh = npdq[si]->Execute(q);
          if (!fresh.ok()) {
            res.ok = false;
            res.error = fresh.status().ToString();
            return res;
          }
          frame.partial |=
              npdq[si]->integrity() == ResultIntegrity::kPartial;
          frame.segments.insert(frame.segments.end(), fresh->begin(),
                                fresh->end());
          ++res.shard_evals;
        } else {
          KnnOptions ko;
          ko.reader = readers[si];
          ko.prefetcher = engine->shard(s).prefetcher.get();
          auto nb = KnnAt(*tree, pos, t, o.k, &knn_stats[si], ko);
          if (!nb.ok()) {
            res.ok = false;
            res.error = nb.status().ToString();
            return res;
          }
          candidates[si] = std::move(*nb);
          ++res.shard_evals;
        }
      }
    }
    if (o.kind == SessionKind::kKnn) {
      frame.neighbors =
          MergeNeighborsByDistance(candidates, static_cast<size_t>(o.k));
      res.objects += frame.neighbors.size();
    } else {
      res.objects += frame.segments.size();
    }
    if (frame.partial) {
      res.ok = false;
      res.error = "partial frame " + std::to_string(i);
      return res;
    }
    if (frame.predictive) ++res.predictive_frames;
    ++res.frames;
    if (o.sink) o.sink(frame);
    prev_t = t;
  }
  for (int s = 0; s < n; ++s) {
    const size_t si = static_cast<size_t>(s);
    if (o.kind == SessionKind::kSession) {
      res.stats += sessions[si]->TotalStats();
    } else if (o.kind == SessionKind::kNpdq) {
      res.stats += npdq[si]->stats();
    } else {
      res.stats += knn_stats[si];
    }
  }
  return res;
}

}  // namespace perfbench
