#include "server/executor.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "geom/box.h"
#include "query/knn.h"
#include "query/npdq.h"
#include "query/session.h"
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
using server_internal::LockFrame;
using server_internal::MakeObserver;
using server_internal::Observer;

// ---------------------------------------------------------------------------
// ThreadPool.

ThreadPool::ThreadPool(int num_threads)
    : ThreadPool(Options{num_threads, 0}) {}

ThreadPool::ThreadPool(const Options& options) : options_(options) {
  DQMO_CHECK(options.num_threads >= 1);
  workers_.reserve(static_cast<size_t>(options.num_threads));
  for (int i = 0; i < options.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

size_t ThreadPool::QueueDepthLocked() const {
  size_t depth = 0;
  for (const auto& q : queues_) depth += q.size();
  return depth;
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return QueueDepthLocked();
}

void ThreadPool::Submit(std::function<void()> task,
                        SessionPriority priority) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (options_.max_queue > 0) {
      // Backpressure: a full bounded queue slows the producer down instead
      // of growing without limit.
      space_cv_.wait(lock, [this] {
        return QueueDepthLocked() < options_.max_queue;
      });
    }
    queues_[static_cast<size_t>(priority)].push_back(std::move(task));
    const size_t depth = QueueDepthLocked();
    ExecMetrics::Get().queue_depth->Set(static_cast<int64_t>(depth));
    ExecMetrics::Get().queue_depth_peak->SetMax(static_cast<int64_t>(depth));
  }
  work_cv_.notify_one();
}

bool ThreadPool::TrySubmit(std::function<void()> task,
                           SessionPriority priority) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.max_queue > 0 && QueueDepthLocked() >= options_.max_queue) {
      return false;
    }
    queues_[static_cast<size_t>(priority)].push_back(std::move(task));
    const size_t depth = QueueDepthLocked();
    ExecMetrics::Get().queue_depth->Set(static_cast<int64_t>(depth));
    ExecMetrics::Get().queue_depth_peak->SetMax(static_cast<int64_t>(depth));
  }
  work_cv_.notify_one();
  return true;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock,
                [this] { return QueueDepthLocked() == 0 && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || QueueDepthLocked() > 0; });
    std::deque<std::function<void()>>* queue = nullptr;
    for (auto& q : queues_) {  // Highest priority class first.
      if (!q.empty()) {
        queue = &q;
        break;
      }
    }
    if (queue == nullptr) return;  // stop_ and drained.
    std::function<void()> task = std::move(queue->front());
    queue->pop_front();
    ExecMetrics::Get().queue_depth->Set(
        static_cast<int64_t>(QueueDepthLocked()));
    ++active_;
    lock.unlock();
    space_cv_.notify_one();
    task();
    lock.lock();
    --active_;
    if (QueueDepthLocked() == 0 && active_ == 0) idle_cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// TreeGate.

std::shared_lock<std::shared_mutex> TreeGate::LockShared() {
  const uint64_t tick = TickNs();
  Tracer::SpanScope span(SpanKind::kGateWait);
  std::shared_lock<std::shared_mutex> lock(mu_);
  ExecMetrics::Get().reader_wait_ns->RecordSince(tick);
  return lock;
}

TreeGate::WriteGuard::WriteGuard(TreeGate* gate) : gate_(gate) {
  const uint64_t tick = TickNs();
  lock_ = std::unique_lock<std::shared_mutex>(gate->mu_);
  ExecMetrics::Get().writer_wait_ns->RecordSince(tick);
}

TreeGate::WriteGuard::~WriteGuard() {
  ScopedLatencyTimer handover_timer(ExecMetrics::Get().handover_ns);
  // Still exclusive here: hand the dirtied pages over to the readers.
  // Stale cached copies are dropped first, then every dirty page is
  // sealed, so the next shared section reads fresh, checksummed bytes
  // without mutating anything but atomic counters.
  if (gate_->file_ != nullptr) {
    if (gate_->pool_ != nullptr || gate_->node_cache_ != nullptr) {
      for (PageId id : gate_->file_->dirty_page_ids()) {
        if (gate_->pool_ != nullptr) gate_->pool_->Invalidate(id);
        if (gate_->node_cache_ != nullptr) gate_->node_cache_->Invalidate(id);
      }
    }
    // No reader of this tree is inside a read section now, so the decodes
    // just dropped are freed unless a reader of another tree holds an
    // older epoch.
    if (gate_->node_cache_ != nullptr) gate_->node_cache_->Reclaim();
    gate_->file_->SealAllDirty();
  }
  // Durability handover: drain the batched redo records before readers
  // resume, so no session ever observes an un-logged motion. Sync failures
  // are parked on the gate (a dtor cannot return them).
  if (gate_->wal_ != nullptr) {
    Status s = gate_->wal_->Sync();
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(gate_->wal_status_mu_);
      if (gate_->wal_status_.ok()) gate_->wal_status_ = std::move(s);
    }
  }
}

// ---------------------------------------------------------------------------
// Session runners.

namespace {

SessionResult RunHandoffSession(RTree* tree, const SessionSpec& spec,
                                PageReader* reader, TreeGate* gate,
                                OverloadGovernor* governor) {
  SessionResult out;
  out.checksum = kFnvOffset;
  Rng rng(spec.seed);
  Observer obs = MakeObserver(&rng, spec);
  FrameController ctl(spec, governor);

  DynamicQuerySession::Options sopt;
  sopt.window = spec.window;
  sopt.reader = reader;
  sopt.npdq.reader = reader;
  sopt.hot_path = spec.hot_path;
  sopt.budget = ctl.engine_budget();
  sopt.prefetcher = spec.prefetcher;
  // A budgeted session must degrade (skip + kPartial), not fail.
  if (sopt.budget != nullptr) sopt.fault_policy = FaultPolicy::kSkipSubtree;
  DynamicQuerySession session(tree, sopt);
  const double base_horizon = sopt.prediction_horizon;

  for (int i = 1; i <= spec.frames; ++i) {
    const double t = spec.t0 + i * spec.frame_dt;
    obs.Advance(&rng, spec, t);
    if (ctl.cancelled()) break;
    if (ctl.ShedOrArm()) {
      ++out.frames_shed;
      // A shed frame voids its declared future: speculative reads hinted
      // for it would only land as wasted I/O.
      if (spec.prefetcher != nullptr) spec.prefetcher->CancelPending();
      continue;  // Next frame's [t0, t] interval covers the gap.
    }
    if (ctl.governed()) {
      session.set_prediction_horizon(
          std::max(1e-3, base_horizon * ctl.horizon_scale()));
    }
    FrameLatencyScope latency(spec, &out);
    Tracer::FrameScope frame_scope(spec.seed, static_cast<uint64_t>(i));
    auto lock = LockFrame(gate);
    auto frame = session.OnFrame(t, obs.pos, obs.vel);
    if (!frame.ok()) {
      out.status = frame.status();
      break;
    }
    FoldU64(&out.checksum, static_cast<uint64_t>(i));
    FoldSegments(&out.checksum, &frame->fresh);
    out.objects_delivered += frame->fresh.size();
    ++out.frames_completed;
    if (ctl.FrameDegraded()) ++out.frames_degraded;
    ctl.EndFrame();
  }
  server_internal::FinishSession(&out, ctl);
  // The session (and its SPDQ's update listener) must unregister before
  // the gate lock of the last frame is long gone; destruction here is
  // outside any shared section, which is fine — AddListener/RemoveListener
  // are internally synchronized against the writer's notifications.
  out.stats = session.TotalStats();
  return out;
}

SessionResult RunNpdqSession(RTree* tree, const SessionSpec& spec,
                             PageReader* reader, TreeGate* gate,
                             OverloadGovernor* governor) {
  SessionResult out;
  out.checksum = kFnvOffset;
  Rng rng(spec.seed);
  Observer obs = MakeObserver(&rng, spec);
  FrameController ctl(spec, governor);

  NpdqOptions nopt;
  nopt.reader = reader;
  nopt.hot_path = spec.hot_path;
  nopt.budget = ctl.engine_budget();
  nopt.prefetcher = spec.prefetcher;
  if (nopt.budget != nullptr) nopt.fault_policy = FaultPolicy::kSkipSubtree;
  NonPredictiveDynamicQuery npdq(tree, nopt);

  double prev_t = spec.t0;
  for (int i = 1; i <= spec.frames; ++i) {
    const double t = spec.t0 + i * spec.frame_dt;
    obs.Advance(&rng, spec, t);
    if (ctl.cancelled()) break;
    if (ctl.ShedOrArm()) {
      ++out.frames_shed;
      if (spec.prefetcher != nullptr) spec.prefetcher->CancelPending();
      continue;  // prev_t stays: the next snapshot covers the gap.
    }
    const StBox q(Box::Centered(obs.pos, spec.window), Interval(prev_t, t));
    FrameLatencyScope latency(spec, &out);
    Tracer::FrameScope frame_scope(spec.seed, static_cast<uint64_t>(i));
    auto lock = LockFrame(gate);
    auto fresh = npdq.Execute(q);
    if (!fresh.ok()) {
      out.status = fresh.status();
      break;
    }
    FoldU64(&out.checksum, static_cast<uint64_t>(i));
    FoldSegments(&out.checksum, &*fresh);
    out.objects_delivered += fresh->size();
    ++out.frames_completed;
    prev_t = t;
    if (ctl.FrameDegraded()) {
      ++out.frames_degraded;
      // An incomplete snapshot must not mask later frames (Lemma 1 assumes
      // "previous" retrieved everything); re-read fresh next frame.
      npdq.ResetHistory();
    }
    ctl.EndFrame();
  }
  server_internal::FinishSession(&out, ctl);
  out.stats = npdq.stats();
  return out;
}

SessionResult RunKnnSession(RTree* tree, const SessionSpec& spec,
                            PageReader* reader, TreeGate* gate,
                            OverloadGovernor* governor) {
  SessionResult out;
  out.checksum = kFnvOffset;
  Rng rng(spec.seed);
  Observer obs = MakeObserver(&rng, spec);
  FrameController ctl(spec, governor);

  MovingKnnQuery::Options kopt;
  kopt.reader = reader;
  kopt.hot_path = spec.hot_path;
  kopt.budget = ctl.engine_budget();
  kopt.prefetcher = spec.prefetcher;
  if (kopt.budget != nullptr) kopt.fault_policy = FaultPolicy::kSkipSubtree;
  MovingKnnQuery knn(tree, spec.k, kopt);

  for (int i = 1; i <= spec.frames; ++i) {
    const double t = spec.t0 + i * spec.frame_dt;
    obs.Advance(&rng, spec, t);
    if (ctl.cancelled()) break;
    if (ctl.ShedOrArm()) {
      ++out.frames_shed;
      if (spec.prefetcher != nullptr) spec.prefetcher->CancelPending();
      continue;
    }
    FrameLatencyScope latency(spec, &out);
    Tracer::FrameScope frame_scope(spec.seed, static_cast<uint64_t>(i));
    auto lock = LockFrame(gate);
    auto neighbors = knn.At(t, obs.pos);
    if (!neighbors.ok()) {
      out.status = neighbors.status();
      break;
    }
    FoldU64(&out.checksum, static_cast<uint64_t>(i));
    for (const Neighbor& n : *neighbors) {
      FoldU64(&out.checksum, n.motion.oid);
      FoldDouble(&out.checksum, n.distance);
    }
    out.objects_delivered += neighbors->size();
    ++out.frames_completed;
    if (ctl.FrameDegraded()) ++out.frames_degraded;
    ctl.EndFrame();
  }
  server_internal::FinishSession(&out, ctl);
  out.stats = knn.stats();
  return out;
}

}  // namespace

SessionResult RunSession(RTree* tree, const SessionSpec& spec,
                         PageReader* reader, TreeGate* gate,
                         OverloadGovernor* governor) {
  const uint64_t tick = TickNs();
  SessionResult out;
  switch (spec.kind) {
    case SessionKind::kNpdq:
      out = RunNpdqSession(tree, spec, reader, gate, governor);
      break;
    case SessionKind::kKnn:
      out = RunKnnSession(tree, spec, reader, gate, governor);
      break;
    case SessionKind::kSession:
      out = RunHandoffSession(tree, spec, reader, gate, governor);
      break;
  }
  ExecMetrics& em = ExecMetrics::Get();
  em.session_ns->RecordSince(tick);
  em.sessions->Add();
  em.session_objects->Add(out.objects_delivered);
  return out;
}

// ---------------------------------------------------------------------------
// SessionScheduler.

ExecutorReport SessionScheduler::Run(const std::vector<SessionSpec>& specs) {
  const uint64_t hits0 =
      options_.pool != nullptr ? options_.pool->hits() : 0;
  const uint64_t misses0 =
      options_.pool != nullptr ? options_.pool->misses() : 0;

  server_internal::ScheduleOptions sched;
  sched.num_threads = options_.num_threads;
  sched.max_queue = options_.max_queue;
  sched.admission = options_.admission;
  sched.governor = options_.governor;
  ExecutorReport report = server_internal::RunScheduledSessions(
      specs, sched, [this](const SessionSpec& spec) {
        return RunSession(tree_, spec, options_.reader, options_.gate,
                          options_.governor);
      });

  if (options_.pool != nullptr) {
    report.pool_hits = options_.pool->hits() - hits0;
    report.pool_misses = options_.pool->misses() - misses0;
  }
  return report;
}

}  // namespace dqmo
