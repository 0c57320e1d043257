// Output checks, made apart from the program: brute-force replays of the
// query classes on the benchmark's own observer paths, and the property
// checks of each workload.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "geom/box.h"
#include "geom/trajectory.h"
#include "oracle.h"
#include "perfbench.h"
#include "query/session.h"
#include "rtree/layout.h"
#include "server/session_runner.h"

namespace perfbench {

using namespace dqmo;
using dqmo::testing::NaiveOracle;
using dqmo::testing::NpdqOracle;
using dqmo::testing::PdqOracle;
using dqmo::server_internal::FoldDouble;
using dqmo::server_internal::FoldSegments;
using dqmo::server_internal::FoldU64;
using dqmo::server_internal::kFnvOffset;
using Key = MotionSegment::Key;

void CheckLog::Fail(const std::string& why) {
  ++attempted;
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

namespace {

std::string Describe(SessionKind kind, int index, double t0) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "oracle %s session %d (t0 %.3f)",
                KindName(kind), index, t0);
  return buf;
}

/// The paper's delivery rules for a hand-off session, with
/// DynamicQuerySession's default options (query/session.h): SPDQ frames
/// deliver each object of the inflated predicted trajectory once, in the
/// first frame whose interval meets its visible times; NPDQ frames deliver
/// the bounding-box matches not matched by the previous snapshot. The mode
/// follows the observer's motion alone.
class SessionModel {
 public:
  SessionModel(const NaiveOracle* data, double window)
      : data_(data), window_(window), npdq_(data) {}

  struct Expect {
    bool predictive = false;
    std::set<Key> keys;
    std::string error;
  };

  Expect Step(double t, const Vec& p, const Vec& v) {
    Expect e;
    const double t0 = last_t_ < 0 ? t : last_t_;
    last_t_ = t;
    if (predictive_) {
      const Vec predicted = origin_ + velocity_ * (t - pred_t0_);
      if (p.DistanceTo(predicted) <= opt_.deviation_bound) {
        if (t > pred_end_) e.error = StartPredictive(t, p, v);
        if (!e.error.empty()) return e;
        e.predictive = true;
        e.keys = pdq_->Frame(t0, t);
        return e;
      }
      predictive_ = false;
      npdq_ = NpdqOracle(data_);
      streak_ = 0;
      anchored_ = false;
    }
    e.keys = npdq_.Frame(StBox(Box::Centered(p, window_), Interval(t0, t)));
    bool consistent = false;
    if (anchored_) {
      const Vec extrapolated = anchor_p_ + last_v_ * (t - anchor_t_);
      consistent = p.DistanceTo(extrapolated) <= opt_.deviation_bound;
    }
    if (consistent) {
      ++streak_;
    } else {
      anchored_ = true;
      anchor_t_ = t;
      anchor_p_ = p;
      last_v_ = v;
      streak_ = 0;
    }
    if (streak_ >= opt_.stable_frames_to_predict) {
      e.error = StartPredictive(t, p, v);
      predictive_ = true;
      streak_ = 0;
      anchored_ = false;
    }
    return e;
  }

 private:
  std::string StartPredictive(double t, const Vec& p, const Vec& v) {
    pred_t0_ = t;
    origin_ = p;
    velocity_ = v;
    pred_end_ = t + opt_.prediction_horizon;
    const double side = window_ + 2.0 * opt_.deviation_bound;
    std::vector<KeySnapshot> keys;
    keys.emplace_back(t, Box::Centered(p, side));
    keys.emplace_back(pred_end_,
                      Box::Centered(p + v * opt_.prediction_horizon, side));
    auto trajectory = QueryTrajectory::Make(std::move(keys));
    if (!trajectory.ok()) return trajectory.status().ToString();
    pdq_ = std::make_unique<PdqOracle>(data_, std::move(*trajectory));
    return "";
  }

  const DynamicQuerySession::Options opt_;
  const NaiveOracle* data_;
  double window_;
  double last_t_ = -1.0;
  bool predictive_ = false;
  double pred_t0_ = 0, pred_end_ = 0;
  Vec origin_, velocity_;
  std::unique_ptr<PdqOracle> pdq_;
  NpdqOracle npdq_;
  int streak_ = 0;
  bool anchored_ = false;
  double anchor_t_ = 0;
  Vec anchor_p_, last_v_;
};

/// The segments of `all` that can matter to a session on `path`: those
/// whose stored bounding box meets the path's hull, widened by the
/// (SPDQ-inflated) half window, over the path's times.
NaiveOracle LocalData(const NaiveOracle& all, const ObserverPath& path,
                      double window) {
  double lo[2] = {1e300, 1e300}, hi[2] = {-1e300, -1e300};
  for (const Vec& p : path.pos) {
    for (int d = 0; d < 2; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  const double margin =
      0.5 * window + DynamicQuerySession::Options().deviation_bound + 1.0;
  Box spatial(2);
  for (int d = 0; d < 2; ++d) {
    spatial.extent(d) = Interval(lo[d] - margin, hi[d] + margin);
  }
  const StBox hull(spatial, Interval(path.t0 - 0.5, path.t.back() + 0.5));
  std::vector<MotionSegment> local;
  for (const MotionSegment& m : all.data()) {
    if (QuantizeOutward(m.Bounds()).Overlaps(hull)) local.push_back(m);
  }
  return NaiveOracle(std::move(local));
}

/// Sorted keys of a frame's delivery; false when a key repeats.
bool SortedKeys(const std::vector<MotionSegment>& segs,
                std::vector<Key>* keys) {
  keys->clear();
  for (const MotionSegment& m : segs) keys->push_back(m.key());
  std::sort(keys->begin(), keys->end());
  return std::adjacent_find(keys->begin(), keys->end()) == keys->end();
}

std::string FrameMismatch(int frame, const char* what, size_t got,
                          size_t want) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "frame %d: %s (engine %zu, oracle %zu)",
                frame, what, got, want);
  return buf;
}

/// The router's per-frame checksum (ShardedSessionResult::FrameRecord::
/// merged_checksum) of a merged frame.
uint64_t FrameChecksum(const DirectFrame& f, SessionKind kind) {
  uint64_t h = kFnvOffset;
  FoldU64(&h, static_cast<uint64_t>(f.index));
  if (kind == SessionKind::kKnn) {
    for (const Neighbor& nb : f.neighbors) {
      FoldU64(&h, nb.motion.oid);
      FoldDouble(&h, nb.distance);
    }
  } else {
    std::vector<MotionSegment> segs = f.segments;
    FoldSegments(&h, &segs);
  }
  return h;
}

/// Requires ShardRouter::RunOne of `spec` to deliver, frame by frame, the
/// answers whose checksums are `want` (the frames checked against the
/// oracle). Returns the first mismatch, or "".
std::string CompareRouter(ShardedEngine* engine, const SessionSpec& spec,
                          const std::vector<uint64_t>& want) {
  ShardRouter::Options ro;
  ro.record_frames = true;
  const ShardedSessionResult r = ShardRouter(engine, ro).RunOne(spec);
  if (!r.result.status.ok()) return "router: " + r.result.status.ToString();
  if (r.frames.size() != want.size()) {
    return FrameMismatch(static_cast<int>(r.frames.size()),
                         "router frames recorded", r.frames.size(),
                         want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (r.frames[i].partial || r.frames[i].merged_checksum != want[i]) {
      return FrameMismatch(r.frames[i].frame,
                           "router answer differs from the checked one",
                           r.frames[i].partial ? 1 : 0, 0);
    }
  }
  return "";
}

/// Replays one session and compares every frame, then the router's run of
/// the same spec; returns the first mismatch, or "" when every frame
/// matched.
std::string ReplayOne(ShardedEngine* engine, const NaiveOracle& all,
                      const SessionSpec& spec) {
  std::string first_error;
  auto fail = [&first_error](const std::string& why) {
    if (first_error.empty()) first_error = why;
  };
  const SessionKind kind = spec.kind;
  const ObserverPath path = PathOf(spec);
  DirectOptions o;
  o.kind = kind;
  o.window = spec.window;
  o.k = spec.k;
  std::vector<Key> got;
  std::vector<uint64_t> checksums;
  auto finish = [&](const DirectResult& r) {
    if (!r.ok) fail(r.error);
    if (r.frames != path.t.size()) fail("session did not complete its frames");
    if (first_error.empty()) fail(CompareRouter(engine, spec, checksums));
    return first_error;
  };

  if (kind == SessionKind::kKnn) {
    o.sink = [&](const DirectFrame& f) {
      checksums.push_back(FrameChecksum(f, kind));
      const Vec& p = path.pos[static_cast<size_t>(f.index - 1)];
      const std::vector<Neighbor> want = all.Knn(p, f.t, spec.k);
      if (f.neighbors.size() != want.size()) {
        fail(FrameMismatch(f.index, "neighbor count", f.neighbors.size(),
                           want.size()));
        return;
      }
      for (size_t i = 0; i < want.size(); ++i) {
        const bool tie =
            (i > 0 && want[i - 1].distance == want[i].distance) ||
            (i + 1 < want.size() && want[i + 1].distance == want[i].distance);
        if (f.neighbors[i].distance != want[i].distance ||
            (!tie && !(f.neighbors[i].motion.key() == want[i].motion.key()))) {
          fail(FrameMismatch(f.index, "neighbor differs at rank", i, i));
          return;
        }
      }
    };
    return finish(RunDirect(engine, path, o));
  }

  const NaiveOracle local = LocalData(all, path, spec.window);
  SessionModel model(&local, spec.window);
  NpdqOracle npdq(&local);
  o.sink = [&](const DirectFrame& f) {
    checksums.push_back(FrameChecksum(f, kind));
    const size_t fi = static_cast<size_t>(f.index - 1);
    if (!SortedKeys(f.segments, &got)) {
      fail(FrameMismatch(f.index, "object delivered twice", got.size(), 0));
      return;
    }
    std::set<Key> want;
    if (kind == SessionKind::kSession) {
      SessionModel::Expect e = model.Step(f.t, path.pos[fi], path.vel[fi]);
      if (!e.error.empty()) {
        fail(e.error);
        return;
      }
      if (e.predictive != f.predictive) {
        fail(FrameMismatch(f.index, "mode (predictive) differs",
                           f.predictive ? 1 : 0, e.predictive ? 1 : 0));
        return;
      }
      want = std::move(e.keys);
    } else {
      want = npdq.Frame(
          StBox(Box::Centered(path.pos[fi], spec.window), Interval(f.t0, f.t)));
    }
    if (got.size() != want.size() ||
        !std::equal(got.begin(), got.end(), want.begin())) {
      fail(FrameMismatch(f.index, "delivered set differs", got.size(),
                         want.size()));
    }
  };
  return finish(RunDirect(engine, path, o));
}

}  // namespace

void CheckAgainstOracle(ShardedEngine* engine, const WorkloadSpec& w,
                        const std::vector<MotionSegment>& data, uint64_t seed,
                        double t_lo, double t_hi, CheckLog* log) {
  NaiveOracle all;
  for (const MotionSegment& m : data) all.Insert(m);
  const double span = w.oracle_frames * w.frame_dt;
  t_hi = std::max(t_lo, std::min(t_hi, 100.0 - span - 0.5));
  int index = 0;
  for (SessionKind kind : kKindOrder) {
    for (int i = 0; i < w.oracle_sessions_per_kind; ++i, ++index) {
      Rng rng(Mix(seed, 0x0AC1E, static_cast<uint64_t>(index)));
      SessionSpec spec;
      spec.kind = kind;
      spec.t0 = rng.Uniform(t_lo, t_hi);
      spec.seed = rng.NextU64();
      spec.frames = w.oracle_frames;
      spec.frame_dt = w.frame_dt;
      spec.window = w.window;
      spec.k = w.k;
      const std::string err = ReplayOne(engine, all, spec);
      log->Expect(err.empty(), Describe(kind, index, spec.t0) + ": " + err);
    }
  }
}

void CheckSampledReplay(ShardedEngine* engine,
                        const std::vector<SampledSession>& sampled,
                        const char* what, CheckLog* log) {
  ShardRouter router(engine);
  for (const SampledSession& s : sampled) {
    const ShardedSessionResult r = router.RunOne(s.spec);
    const bool same = r.result.status.ok() &&
                      r.result.checksum == s.checksum &&
                      r.result.frames_completed == s.frames &&
                      r.result.objects_delivered == s.objects;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: %s session seed %llu checksum %016llx, timed run "
                  "%016llx",
                  what, KindName(s.spec.kind),
                  static_cast<unsigned long long>(s.spec.seed),
                  static_cast<unsigned long long>(r.result.checksum),
                  static_cast<unsigned long long>(s.checksum));
    log->Expect(same, buf);
  }
}

void CheckDurableReopen(const WorkloadSpec& w, const std::string& dir,
                        const std::vector<MotionSegment>& expected,
                        uint64_t seed, CheckLog* log) {
  auto reopened = ShardedEngine::Create(EngineOptions(w, dir));
  if (!reopened.ok()) {
    log->Fail("durable reopen: " + reopened.status().ToString());
    return;
  }
  CheckHolds(reopened->get(), expected, seed, "durable reopen", log);
}

void CheckHolds(ShardedEngine* engine,
                const std::vector<MotionSegment>& expected, uint64_t seed,
                const std::string& what, CheckLog* log) {
  log->Expect(engine->num_segments() == expected.size(),
              what + ": " + std::to_string(engine->num_segments()) +
                  " segments held, " + std::to_string(expected.size()) +
                  " acknowledged");

  NaiveOracle all;
  for (const MotionSegment& m : expected) all.Insert(m);
  auto range = [engine](const StBox& q, std::vector<Key>* keys) -> Status {
    keys->clear();
    for (int s = 0; s < engine->num_shards(); ++s) {
      QueryStats stats;
      auto r = engine->shard(s).tree->RangeSearch(q, &stats,
                                                  engine->shard(s).reader());
      if (!r.ok()) return r.status();
      for (const MotionSegment& m : *r) keys->push_back(m.key());
    }
    std::sort(keys->begin(), keys->end());
    return Status::OK();
  };
  auto keys_of = [](const std::vector<MotionSegment>& segs) {
    std::vector<Key> keys;
    for (const MotionSegment& m : segs) keys.push_back(m.key());
    std::sort(keys.begin(), keys.end());
    return keys;
  };

  // Everything: a query box that every stored segment meets.
  std::vector<Key> got;
  const StBox everything(Box::Centered(Vec(50.0, 50.0), 1e6),
                         Interval(-1e6, 1e6));
  Status st = range(everything, &got);
  log->Expect(st.ok() && got == keys_of(all.data()),
              what + ": held segments differ from the loaded and "
              "inserted ones (" + st.ToString() + ")");

  Rng rng(Mix(seed, 0xBE0BE));
  for (int i = 0; i < 24; ++i) {
    const Vec c(rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0));
    const double t = rng.Uniform(0.0, 100.0);
    const StBox q(Box::Centered(c, rng.Uniform(2.0, 20.0)),
                  Interval(t, t + rng.Uniform(0.0, 2.0)));
    st = range(q, &got);
    log->Expect(st.ok() && got == keys_of(all.Snapshot(q)),
                what + ": range query " + std::to_string(i) +
                    " differs from brute force");
  }
}

}  // namespace perfbench
