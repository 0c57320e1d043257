// perfbench: one run of one workload. perfbench/run.py builds this program
// and runs it; see README.md for the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--commit <id>]
//
// Prints a report (lines starting with '#') and, as its last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The metrics
// are the end-to-end ones, or with --trace 1 the per-layer ones. Exits 1
// when a check fails.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench.h"
#include "query/kernels.h"
#include "workload/data_generator.h"

namespace perfbench {
namespace {

using namespace dqmo;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> [--commit <id>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0) ||
          a.seconds > 600) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("bad --trace");
      a.trace = v == "1";
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (FindWorkload(a.workload) == nullptr) {
    std::string known;
    for (const std::string& n : WorkloadNames()) known += " " + n;
    Usage(("unknown --workload; one of:" + known).c_str());
  }
  if (a.workdir.empty()) Usage("--workdir is required");
  return a;
}

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolated quantile of `v` (sorted in place).
double Quantile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double f = pos - static_cast<double>(lo);
  return static_cast<double>((*v)[lo]) * (1.0 - f) +
         static_cast<double>((*v)[hi]) * f;
}

/// Samples strictly beyond the q-quantile (the tail the percentile rests
/// on); the report prints it next to every percentile.
size_t Beyond(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  return sorted.size() - 1 - static_cast<size_t>(std::ceil(pos));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    list_.push_back(Metric{name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < list_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", list_[i].name.c_str(),
                    std::isfinite(list_[i].value) ? list_[i].value : 0.0,
                    list_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }
  void Print() const {
    for (const Metric& m : list_) {
      std::printf("#   %-40s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  std::vector<Metric> list_;
};

/// Adds "<name>_p50_us" and "<name>_<hi_name>_us" from ns samples taken
/// in consecutive windows of the run: each window's quantiles, then the
/// median over the windows, so that a few seconds in which the machine ran
/// faster or slower than usual move the figure less. A window with fewer
/// than ten samples beyond the upper quantile is left out; when fewer than
/// half the windows remain, the quantiles of all samples pooled are used.
/// The report prints the sample count and the tail behind the figures.
void AddWindowedLatency(MetricList* m, const std::string& name,
                        const std::vector<std::vector<uint64_t>*>& windows,
                        double q_hi, const char* hi_name) {
  size_t n = 0;
  size_t min_beyond = SIZE_MAX;
  std::vector<double> p50s, his;
  for (std::vector<uint64_t>* v : windows) {
    n += v->size();
    if (v->empty()) continue;
    const double p50 = Quantile(v, 0.5);
    const double hi = Quantile(v, q_hi);
    const size_t beyond = Beyond(*v, q_hi);
    if (beyond < 10) continue;
    p50s.push_back(p50);
    his.push_back(hi);
    min_beyond = std::min(min_beyond, beyond);
  }
  if (!p50s.empty()) {
    std::printf("# by window %s p50:", name.c_str());
    for (double x : p50s) std::printf(" %.3f", x * 1e-3);
    std::printf(" %s:", hi_name);
    for (double x : his) std::printf(" %.3f", x * 1e-3);
    std::printf("\n");
  }
  double p50 = 0, hi = 0;
  const bool windowed = !p50s.empty() && p50s.size() * 2 >= windows.size();
  if (windowed) {
    p50 = Median(p50s);
    hi = Median(his);
  } else {
    std::vector<uint64_t> all;
    for (const std::vector<uint64_t>* v : windows) {
      all.insert(all.end(), v->begin(), v->end());
    }
    p50 = Quantile(&all, 0.5);
    hi = Quantile(&all, q_hi);
    min_beyond = Beyond(all, q_hi);
  }
  std::printf("# %-14s n=%-9zu %s: p50 %10.3f us, %s %10.3f us, %zu or more "
              "samples beyond%s\n",
              name.c_str(), n,
              windowed ? "median over windows" : "all windows pooled",
              p50 * 1e-3, hi_name, hi * 1e-3, min_beyond,
              min_beyond < 10 ? "  WARNING: fewer than 10 beyond" : "");
  m->Add(name + "_p50_us", p50 * 1e-3, "us");
  m->Add(name + "_" + hi_name + "_us", hi * 1e-3, "us");
}

// ---------------------------------------------------------------------------
// Provenance and process counters.

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct ProcUsage {
  double cpu_s = 0;
  long voluntary = 0;
  long minor_faults = 0;
  long max_rss_kb = 0;
};

ProcUsage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.voluntary = ru.ru_nvcsw;
  u.minor_faults = ru.ru_minflt;
  u.max_rss_kb = ru.ru_maxrss;
  return u;
}

uint64_t WalBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  if (dir.empty() || !std::filesystem::exists(dir, ec)) return 0;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".wal") total += e.file_size(ec);
  }
  return total;
}

struct PoolCounts {
  uint64_t hits = 0, misses = 0;
};

PoolCounts ReadPools(ShardedEngine* engine) {
  PoolCounts c;
  for (int s = 0; s < engine->num_shards(); ++s) {
    c.hits += engine->shard(s).pool->hits();
    c.misses += engine->shard(s).pool->misses();
  }
  return c;
}

void QuiescePrefetch(ShardedEngine* engine) {
  for (int s = 0; s < engine->num_shards(); ++s) {
    if (engine->shard(s).prefetcher) engine->shard(s).prefetcher->Quiesce();
  }
}

size_t IndexPages(ShardedEngine* engine) {
  size_t pages = 0;
  for (int s = 0; s < engine->num_shards(); ++s) {
    pages += engine->shard(s).file->num_pages();
  }
  return pages;
}

/// Engine counters, summed over the phases they were read around.
struct EngineCounters {
  PoolCounts pool;
  IoStats io;
  uint64_t wal_bytes = 0;

  static EngineCounters Read(ShardedEngine* engine, const std::string& dir) {
    QuiescePrefetch(engine);
    EngineCounters c;
    c.pool = ReadPools(engine);
    c.io = engine->TotalIoStats();
    c.wal_bytes = WalBytes(dir);
    return c;
  }
};

/// Runs `phase` and adds what the engine's counters moved by to `sum`.
template <typename Phase>
void Counted(ShardedEngine* engine, const std::string& dir,
             EngineCounters* sum, Phase phase) {
  const EngineCounters c0 = EngineCounters::Read(engine, dir);
  phase();
  const EngineCounters c1 = EngineCounters::Read(engine, dir);
  sum->pool.hits += c1.pool.hits - c0.pool.hits;
  sum->pool.misses += c1.pool.misses - c0.pool.misses;
  sum->io += c1.io - c0.io;
  sum->wal_bytes += c1.wal_bytes - c0.wal_bytes;
}

/// `base` plus the first `n` of `rest`: every segment an engine holds.
std::vector<MotionSegment> Held(const std::vector<MotionSegment>& base,
                                const std::vector<MotionSegment>& rest,
                                size_t n) {
  std::vector<MotionSegment> held = base;
  held.insert(held.end(), rest.begin(), rest.begin() + static_cast<long>(n));
  return held;
}

/// InsertBatch calls the untimed durable copy of an ingest engine takes.
constexpr int kDurablePassBatches = 8;

int Run(const Args& a) {
  const WorkloadSpec& w = *FindWorkload(a.workload);
  std::error_code ec;
  std::filesystem::create_directories(a.workdir, ec);
  if (ec) Usage("cannot create --workdir");

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("# provenance: commit=%s compiler=\"%s\" flags=\"%s\" "
              "build_type=%s\n",
              a.commit.c_str(), PERFBENCH_COMPILER, PERFBENCH_FLAGS,
              PERFBENCH_BUILD_TYPE);
  std::printf("# provenance: cpu=\"%s\" nproc=%ld hardware_threads=%u "
              "simd=%s\n",
              CpuModel().c_str(), sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(),
              SimdLevelName(ActiveSimdLevel()));

  // Inputs (not part of set-up time).
  DataGeneratorOptions g;
  g.seed = Mix(a.seed, 0xDA7A);
  uint64_t t0 = NowNs();
  auto generated = GenerateMotionData(g);
  if (!generated.ok()) {
    std::fprintf(stderr, "perfbench: GenerateMotionData: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const double generate_s = static_cast<double>(NowNs() - t0) * 1e-9;
  // The generator's output is in start-time order, so `rest` is too.
  std::vector<MotionSegment> base, rest;
  for (MotionSegment& m : *generated) {
    (m.seg.time.lo < w.base_cutoff ? base : rest).push_back(std::move(m));
  }
  generated->clear();
  const bool ingest = w.ingest_batch > 0;
  const size_t batch =
      ingest ? w.ingest_batch : UpdateBatchSize(w, rest.size());
  std::printf("# inputs: %d objects, %zu segments (%zu bulk-loaded, %zu "
              "updates from t = %g), generated in %.3f s\n",
              g.num_objects, base.size() + rest.size(), base.size(),
              rest.size(), w.base_cutoff, generate_s);

  // Set-up, several times; the last engine serves the run.
  constexpr int kSetupReps = 5;
  std::vector<SetupTimes> setups;
  std::unique_ptr<ShardedEngine> engine;
  std::string dir;
  for (int r = 0; r < kSetupReps; ++r) {
    if (engine) {
      engine.reset();
      std::filesystem::remove_all(dir, ec);
    }
    dir = a.workdir + "/engine-" + std::to_string(r);
    SetupTimes st;
    engine = BuildEngine(w, base, dir, &st);
    setups.push_back(st);
  }
  auto median_of = [&setups](double (*f)(const SetupTimes&)) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(f(s));
    return Median(v);
  };
  const double setup_s =
      median_of([](const SetupTimes& s) { return s.total_s(); });
  for (const SetupTimes& s : setups) {
    std::printf("# setup: create %.4f s, bulk load %.4f s, checkpoint %.4f "
                "s, durable open %.4f s, total %.4f s\n",
                s.create_s, s.bulk_load_s, s.checkpoint_s, s.open_s,
                s.total_s());
  }
  const size_t pages = IndexPages(engine.get());
  std::printf("# engine: %d shard(s), %s, %zu index pages; per shard pool "
              "%zu pages, node cache %zu nodes; %d client thread(s), %d "
              "frames/session, window %g, k %d; %zu updates per batch %s\n",
              w.shards,
              w.durable ? (w.backend == IoBackend::kPread ? "durable/pread"
                                                          : "durable/memory")
                        : "in-memory",
              pages, w.pool_pages, w.cache_nodes, w.threads, w.frames,
              w.window, w.k, batch,
              ingest ? "before every frame"
                     : "in update phases between read windows");

  UpdateStream updates(engine.get(), &rest, batch);
  LoopConfig cfg;
  cfg.w = &w;
  cfg.engine = engine.get();
  cfg.seed = a.seed;
  cfg.updates = ingest ? &updates : nullptr;

  // Warm-up: every node read once, then the same loop, nothing kept.
  WarmCaches(engine.get());
  cfg.stream = 1;
  cfg.seconds = std::min(2.0, 0.25 * a.seconds);
  const LoopStats warm = RunRouterLoop(cfg);

  // Timed phase: read windows of about two seconds. Without per-frame
  // ingest, an update phase precedes each window and inserts the window's
  // share of the pending updates, one frame interval's per call, so
  // that the updates are sampled across the run and the last window reads
  // the final index (its sessions are kept for the replay checks).
  const int windows =
      std::max(1, static_cast<int>(std::lround(a.seconds / 2.0)));
  std::vector<LoopStats> win(static_cast<size_t>(windows));
  std::vector<UpdateStats> upd;
  EngineCounters read_io, update_io;
  ProcUsage used;  // Over the read windows only.
  cfg.seconds = a.seconds / windows;
  for (size_t i = 0; i < win.size(); ++i) {
    updates.stats().Reset();
    if (!ingest) {
      const size_t target = rest.size() * (i + 1) / win.size();
      Counted(engine.get(), dir, &update_io, [&] {
        while (updates.inserted() < target) updates.InsertNext();
      });
      // Caches that hold the whole index are refilled, untimed, with the
      // nodes the updates replaced, so the reads stay fully cached.
      if (w.cache_nodes >= pages) WarmCaches(engine.get());
    }
    cfg.stream = 10 + i;
    cfg.sample_per_thread =
        i + 1 == win.size() ? std::max(1, 24 / w.threads) : 0;
    const ProcUsage r0 = ReadUsage();
    Counted(engine.get(), dir, &read_io, [&] { win[i] = RunRouterLoop(cfg); });
    const ProcUsage r1 = ReadUsage();
    used.cpu_s += r1.cpu_s - r0.cpu_s;
    used.voluntary += r1.voluntary - r0.voluntary;
    used.minor_faults += r1.minor_faults - r0.minor_faults;
    upd.push_back(updates.stats());
  }

  if (!ingest) {
    const double n = static_cast<double>(rest.size());
    const IoStats& io = update_io.io;
    std::printf("# update phases: %.3f physical reads, %.3f pool hits, "
                "%.3f page writes per update\n",
                Ratio(static_cast<double>(io.physical_reads.load()), n),
                Ratio(static_cast<double>(update_io.pool.hits), n),
                Ratio(static_cast<double>(io.physical_writes.load()), n));
  }

  // Windowed end-to-end metrics (before the windows are merged).
  MetricList e2e;
  std::vector<double> fps, ups;
  double wall_s = 0;
  for (const LoopStats& l : win) {
    const double s = static_cast<double>(l.wall_ns) * 1e-9;
    wall_s += s;
    fps.push_back(Ratio(static_cast<double>(l.frames), s));
  }
  UpdateStats timed_updates;
  for (const UpdateStats& u : upd) {
    if (u.batches > 0) {
      ups.push_back(Ratio(static_cast<double>(u.updates),
                          static_cast<double>(u.insert_ns) * 1e-9));
    }
    timed_updates.batches += u.batches;
    timed_updates.updates += u.updates;
    timed_updates.failed += u.failed;
    timed_updates.insert_ns += u.insert_ns;
    timed_updates.shards_touched += u.shards_touched;
  }
  auto samples = [&win](auto pick) {
    std::vector<std::vector<uint64_t>*> v;
    for (LoopStats& l : win) v.push_back(pick(l));
    return v;
  };
  e2e.Add("setup_s", setup_s, "s");
  e2e.Add("frames_per_s", Median(fps), "1/s");
  AddWindowedLatency(&e2e, "first_frame",
                     samples([](LoopStats& l) { return &l.first_ns; }), 0.9,
                     "p90");
  AddWindowedLatency(&e2e, "session_frame",
                     samples([](LoopStats& l) { return &l.frame_ns[0]; }),
                     0.99, "p99");
  AddWindowedLatency(&e2e, "npdq_frame",
                     samples([](LoopStats& l) { return &l.frame_ns[1]; }),
                     0.99, "p99");
  AddWindowedLatency(&e2e, "knn_frame",
                     samples([](LoopStats& l) { return &l.frame_ns[2]; }),
                     0.99, "p99");
  // Over all timed updates: the cost of an update grows with the index
  // through the run (2x between the first and the last update phase), so a
  // median over phases would pick among unlike phases.
  e2e.Add("updates_per_s",
          Ratio(static_cast<double>(timed_updates.updates),
                static_cast<double>(timed_updates.insert_ns) * 1e-9),
          "1/s");
  std::printf("# by phase updates_per_s:");
  for (double x : ups) std::printf(" %.0f", x);
  std::printf("\n");
  {
    std::vector<std::vector<uint64_t>*> acks;
    for (UpdateStats& u : upd) acks.push_back(&u.ack_ns);
    AddWindowedLatency(&e2e, "update_ack", acks, 0.9, "p90");
  }
  std::printf("# timed phase: %zu windows, %.3f s of reads; frames/s by "
              "window:",
              win.size(), wall_s);
  for (double f : fps) std::printf(" %.0f", f);
  std::printf("\n");
  LoopStats timed;
  for (LoopStats& l : win) timed.Merge(std::move(l));

  // Traced pass (per-layer metrics only).
  LoopStats traced;
  if (a.trace) {
    cfg.stream = 3;
    cfg.seconds = std::max(1.0, 0.25 * a.seconds);
    cfg.sample_per_thread = 0;
    traced = RunTracedLoop(cfg);
  }
  const ProcUsage u_end = ReadUsage();
  // Peak RSS up to the end of the measured phases; the checks that follow
  // (brute-force data copies, more engines) are not counted.
  e2e.Add("peak_rss_mb", static_cast<double>(u_end.max_rss_kb) / 1024.0,
          "MB");

  // --- Checks -------------------------------------------------------------
  CheckLog checks;
  checks.Expect(warm.failed_sessions == 0,
                "warm-up sessions incomplete: " +
                    std::to_string(warm.failed_sessions));
  if (a.trace) {
    checks.Expect(traced.failed_sessions == 0,
                  "traced sessions incomplete: " +
                      std::to_string(traced.failed_sessions));
  }
  for (const std::string& f : timed.failures) checks.failures.push_back(f);
  if (ingest) {
    if (updates.exhausted()) {
      std::printf("# ingest: every pending update was inserted before the "
                  "run ended; the loops stopped there\n");
    }
  } else {
    checks.Expect(updates.exhausted(),
                  "update phases: " + std::to_string(updates.inserted()) +
                      " of " + std::to_string(rest.size()) +
                      " updates inserted");
  }
  const std::vector<MotionSegment> held =
      Held(base, rest, updates.inserted());
  if (w.name == "hot_3t") {
    CheckSampledReplay(engine.get(), timed.sampled,
                       "serial replay of a 3-thread session", &checks);
  } else if (w.name == "cold_jump") {
    WorkloadSpec mem = w;
    mem.durable = false;
    mem.pool_pages = 16384;
    mem.cache_nodes = 16384;
    SetupTimes ignored;
    std::unique_ptr<ShardedEngine> in_memory =
        BuildEngine(mem, held, "", &ignored);
    CheckSampledReplay(in_memory.get(), timed.sampled,
                       "in-memory engine over the same data", &checks);
  }
  double t_lo = 1.0, t_hi = 100.0;
  if (ingest) {
    t_lo = w.base_cutoff - 5.0;
    t_hi = updates.front();
  }
  CheckAgainstOracle(engine.get(), w, held, a.seed, t_lo, t_hi, &checks);
  if (!w.durable) CheckHolds(engine.get(), held, a.seed, "engine", &checks);
  engine.reset();
  if (w.durable) CheckDurableReopen(w, dir, held, a.seed, &checks);

  // The WAL figures: the timed updates' own where they went through a WAL,
  // else (ingest) those of an untimed durable copy of the engine, with live
  // pages in memory, that takes the first pending updates, one frame
  // interval's per call. Its reopen has to recover them.
  EngineCounters wal_io = update_io;
  UpdateStats wal_stats = timed_updates;
  UpdateStats durable_pass;
  if (ingest) {
    WorkloadSpec d = w;
    d.durable = true;
    d.backend = IoBackend::kMemory;
    const std::string ddir = a.workdir + "/durable-pass";
    SetupTimes ignored;
    std::unique_ptr<ShardedEngine> copy = BuildEngine(d, base, ddir, &ignored);
    UpdateStream stream(copy.get(), &rest, UpdateBatchSize(w, rest.size()));
    wal_io = EngineCounters{};
    Counted(copy.get(), ddir, &wal_io, [&] {
      for (int b = 0; b < kDurablePassBatches; ++b) stream.InsertNext();
    });
    durable_pass = stream.stats();
    wal_stats = durable_pass;
    copy.reset();
    CheckDurableReopen(d, ddir, Held(base, rest, stream.inserted()), a.seed,
                       &checks);
  }

  // Each workload's premise, confirmed by the traced run.
  const double frames = static_cast<double>(timed.frames);
  const double physical_per_frame =
      Ratio(static_cast<double>(read_io.io.physical_reads.load()), frames);
  const double shards_per_frame =
      Ratio(static_cast<double>(timed.shard_evals), frames);
  if (a.trace) {
    char premise[160];
    bool met = false;
    if (w.name == "hot_3t") {
      met = physical_per_frame < 0.01;
      std::snprintf(premise, sizeof(premise),
                    "hot_3t: %.5f physical reads/frame < 0.01",
                    physical_per_frame);
    } else if (w.name == "cold_jump") {
      met = physical_per_frame >= 1.0;
      std::snprintf(premise, sizeof(premise),
                    "cold_jump: %.3f physical reads/frame >= 1",
                    physical_per_frame);
    } else {
      met = shards_per_frame > 1.0;
      std::snprintf(premise, sizeof(premise),
                    "ingest_sharded: %.3f shards evaluated/frame > 1",
                    shards_per_frame);
    }
    std::printf("# premise %s: %s\n", premise, met ? "confirmed" : "NOT MET");
    checks.Expect(met, std::string("premise not met: ") + premise);
  }
  std::filesystem::remove_all(a.workdir, ec);

  // --- Report ---------------------------------------------------------------
  const uint64_t attempted = timed.sessions + timed.frames +
                             timed_updates.batches + durable_pass.batches +
                             checks.attempted;
  const uint64_t failed = timed.failed_sessions + timed_updates.failed +
                          durable_pass.failed + checks.failed;
  std::printf("# operations: %llu sessions (%llu failed), %llu frames, %llu "
              "insert batches (%llu failed), %llu checks (%llu failed); "
              "warm-up %llu sessions\n",
              static_cast<unsigned long long>(timed.sessions),
              static_cast<unsigned long long>(timed.failed_sessions),
              static_cast<unsigned long long>(timed.frames),
              static_cast<unsigned long long>(timed_updates.batches +
                                              durable_pass.batches),
              static_cast<unsigned long long>(timed_updates.failed +
                                              durable_pass.failed),
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(warm.sessions));
  for (const std::string& f : checks.failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }

  MetricList layers;
  if (a.trace) {
    QueryStats q;
    for (const QueryStats& s : timed.kind_stats) q += s;
    const IoStats& io = read_io.io;
    // Page writes of the timed updates: inside the read windows when they
    // are inserted before every frame, else in the update phases.
    const IoStats& uio = ingest ? read_io.io : update_io.io;
    const double pool_hits = static_cast<double>(read_io.pool.hits);
    const double pool_misses = static_cast<double>(read_io.pool.misses);
    const double decoded = static_cast<double>(q.decoded_hits.load());
    auto per_frame = [&](double v) { return Ratio(v, frames); };
    auto kind_per_frame = [&](int k, double v) {
      return Ratio(v, static_cast<double>(timed.kind_frames[k]));
    };
    auto self_ns = [&](int k) {
      return Ratio(static_cast<double>(traced.kind_ns[k]) -
                       static_cast<double>(traced.kind_read_ns[k]),
                   static_cast<double>(traced.kind_traced_frames[k]));
    };
    // Frames per second of session time, with and without the TimedReader.
    const double traced_fps =
        Ratio(static_cast<double>(traced.traced_session_frames),
              static_cast<double>(traced.traced_session_ns) * 1e-9);
    const double plain_fps =
        Ratio(static_cast<double>(traced.plain_session_frames),
              static_cast<double>(traced.plain_session_ns) * 1e-9);

    layers.Add("query.node_reads_per_frame",
               per_frame(static_cast<double>(q.node_reads.load())), "count");
    layers.Add("query.distance_computations_per_frame",
               per_frame(static_cast<double>(q.distance_computations.load())),
               "count");
    layers.Add("query.objects_per_frame",
               per_frame(static_cast<double>(timed.objects)), "count");
    layers.Add("query.pdq_queue_pops_per_frame",
               kind_per_frame(0, static_cast<double>(
                                     timed.kind_stats[0].queue_pops.load())),
               "count");
    layers.Add("query.predictive_frame_share",
               Ratio(static_cast<double>(traced.predictive_frames),
                     static_cast<double>(traced.kind_frames[0])),
               "ratio");
    layers.Add("query.npdq_nodes_discarded_per_frame",
               kind_per_frame(1, static_cast<double>(
                                     timed.kind_stats[1].nodes_discarded.load())),
               "count");
    layers.Add("query.session_self_ns", self_ns(0), "ns");
    layers.Add("query.npdq_self_ns", self_ns(1), "ns");
    layers.Add("query.knn_self_ns", self_ns(2), "ns");
    layers.Add("rtree.decoded_hits_per_frame", per_frame(decoded), "count");
    layers.Add("rtree.node_cache_hit_ratio",
               Ratio(decoded, decoded + pool_hits + pool_misses), "ratio");
    layers.Add("rtree.bulk_load_s",
               median_of([](const SetupTimes& s) { return s.bulk_load_s; }),
               "s");
    layers.Add("rtree.page_writes_per_update",
               Ratio(static_cast<double>(uio.physical_writes.load()),
                     static_cast<double>(timed_updates.updates)),
               "count");
    layers.Add("storage.pool_hit_ratio",
               Ratio(pool_hits, pool_hits + pool_misses), "ratio");
    layers.Add("storage.physical_reads_per_frame", physical_per_frame,
               "count");
    layers.Add("storage.pool_hit_ns",
               Ratio(static_cast<double>(traced.reads.hit_ns),
                     static_cast<double>(traced.reads.hits)),
               "ns");
    layers.Add("storage.store_read_ns",
               Ratio(static_cast<double>(traced.reads.physical_ns),
                     static_cast<double>(traced.reads.physical)),
               "ns");
    layers.Add("storage.prefetch_issued_per_frame",
               per_frame(static_cast<double>(io.prefetch_issued.load())),
               "count");
    layers.Add("storage.prefetch_hit_ratio",
               Ratio(static_cast<double>(io.prefetch_hits.load()),
                     static_cast<double>(io.prefetch_issued.load())),
               "ratio");
    layers.Add("storage.prefetch_wasted_per_frame",
               per_frame(static_cast<double>(io.prefetch_wasted.load())),
               "count");
    layers.Add("storage.wal_syncs_per_batch",
               Ratio(static_cast<double>(wal_io.io.wal_syncs.load()),
                     static_cast<double>(wal_stats.batches)),
               "count");
    layers.Add("storage.wal_bytes_per_update",
               Ratio(static_cast<double>(wal_io.wal_bytes),
                     static_cast<double>(wal_stats.updates)),
               "bytes");
    layers.Add("storage.checkpoint_write_s",
               median_of([](const SetupTimes& s) { return s.checkpoint_s; }),
               "s");
    layers.Add("server.shards_evaluated_per_frame", shards_per_frame,
               "count");
    layers.Add("server.shards_touched_per_batch",
               Ratio(static_cast<double>(timed_updates.shards_touched),
                     static_cast<double>(timed_updates.batches)),
               "count");
    layers.Add("server.engine_open_s",
               median_of([](const SetupTimes& s) {
                 return s.open_s > 0 ? s.open_s : s.create_s;
               }),
               "s");
    layers.Add("server.cpu_util", Ratio(used.cpu_s, wall_s), "cores");
    layers.Add("server.voluntary_switches_per_kframe",
               1000.0 * per_frame(static_cast<double>(used.voluntary)),
               "count");
    layers.Add("server.minor_faults_per_kframe",
               1000.0 * per_frame(static_cast<double>(used.minor_faults)),
               "count");
    layers.Add("trace.overhead_pct",
               100.0 * (Ratio(plain_fps, traced_fps) - 1.0), "pct");

    std::printf("# traced pass: %llu sessions, %llu frames in %.3f s; "
                "per client, %.1f frames/s with timed reads, %.1f without\n",
                static_cast<unsigned long long>(traced.sessions),
                static_cast<unsigned long long>(traced.frames),
                static_cast<double>(traced.wall_ns) * 1e-9, traced_fps,
                plain_fps);
    std::printf("# per-layer metrics:\n");
    layers.Print();
  } else {
    std::printf("# end-to-end metrics:\n");
    e2e.Print();
  }

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              (a.trace ? layers : e2e).Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
