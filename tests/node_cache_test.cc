// Lifetime and race tests for the decoded-node cache's lock-free hit path
// (rtree/node_cache.h): readers over a cache far smaller than the tree, so
// nodes are evicted on every query while other threads still hold them; a
// writer inserting under the exclusive gate; and exact hit/miss accounting
// across threads. Run under TSan and ASan by tools/ci.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/random.h"
#include "query/knn.h"
#include "query/npdq.h"
#include "rtree/node_cache.h"
#include "rtree/rtree.h"
#include "server/executor.h"
#include "storage/page_file.h"
#include "test_util.h"

namespace dqmo {
namespace {

using dqmo::testing::KeysOf;
using dqmo::testing::RandomPoint;
using dqmo::testing::RandomQueryBox;
using dqmo::testing::RandomSegments;

constexpr double kSize = 100.0;
constexpr double kHorizon = 100.0;
constexpr int kReaders = 4;
constexpr int kProbesPerReader = 60;

uint64_t Fold(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

uint64_t FoldDouble(uint64_t h, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return Fold(h, bits);
}

/// One reader's work item: a full NPDQ snapshot and a kNN probe.
struct Probe {
  StBox box;
  Vec point;
  double t;
};

std::vector<Probe> MakeProbes(uint64_t seed) {
  Rng rng(seed);
  std::vector<Probe> probes;
  for (int i = 0; i < kProbesPerReader; ++i) {
    Probe p{RandomQueryBox(&rng, 2, kSize, kHorizon, 40.0, 5.0),
            RandomPoint(&rng, 2, kSize), rng.Uniform(0.0, kHorizon)};
    probes.push_back(p);
  }
  return probes;
}

/// Checksum of one reader's answers; accumulates its query stats.
uint64_t RunProbes(RTree* tree, const std::vector<Probe>& probes,
                   TreeGate* gate, QueryStats* stats) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Probe& p : probes) {
    std::shared_lock<std::shared_mutex> lock;
    if (gate != nullptr) lock = gate->LockShared();
    // A fresh NPDQ per probe answers the full snapshot, so the answer does
    // not depend on when a concurrent insert landed.
    NonPredictiveDynamicQuery npdq(tree);
    auto got = npdq.Execute(p.box);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok()) return 0;
    for (const MotionSegment::Key& k : KeysOf(*got)) {
      h = FoldDouble(Fold(h, k.oid), k.t_start);
    }
    *stats += npdq.stats();
    auto knn = KnnAt(*tree, p.point, p.t, 5, stats);
    EXPECT_TRUE(knn.ok()) << knn.status().ToString();
    if (!knn.ok()) return 0;
    for (const Neighbor& n : *knn) {
      h = FoldDouble(Fold(h, n.motion.oid), n.distance);
    }
  }
  return h;
}

/// Segments that live after every probe's time, so inserting them changes
/// pages (splits, invalidations) but no probe's answer.
std::vector<MotionSegment> LateSegments(int n) {
  Rng rng(99);
  std::vector<MotionSegment> out;
  for (int i = 0; i < n; ++i) {
    const double t0 = rng.Uniform(2 * kHorizon, 3 * kHorizon);
    StSegment seg(RandomPoint(&rng, 2, kSize), RandomPoint(&rng, 2, kSize),
                  Interval(t0, t0 + 1.0));
    MotionSegment m(static_cast<ObjectId>(1000000 + i), seg);
    m.seg = QuantizeStored(m.seg);
    out.push_back(m);
  }
  return out;
}

class NodeCacheConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tree = RTree::Create(&file_, RTree::Options());
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(tree).value();
    Rng rng(2026);
    for (const auto& m : RandomSegments(&rng, 4000, 2, kSize, kHorizon)) {
      ASSERT_TRUE(tree_->Insert(m).ok());
    }
    ASSERT_TRUE(file_.Publish().ok());
    ASSERT_GT(tree_->num_nodes(), 40u);
    // Serial replay, uncached: the reference every threaded run must match.
    for (int r = 0; r < kReaders; ++r) {
      probes_.push_back(MakeProbes(700 + static_cast<uint64_t>(r)));
      QueryStats stats;
      expected_.push_back(RunProbes(tree_.get(), probes_.back(), nullptr,
                                    &stats));
    }
  }

  PageFile file_;
  std::unique_ptr<RTree> tree_;
  std::vector<std::vector<Probe>> probes_;
  std::vector<uint64_t> expected_;
};

TEST_F(NodeCacheConcurrencyTest, EvictingReadersAndWriterMatchSerialReplay) {
  // Eight nodes against a tree of 40+: every query evicts.
  DecodedNodeCache cache(8);
  tree_->AttachNodeCache(&cache);
  TreeGate gate(&file_, nullptr, nullptr, &cache);
  const std::vector<MotionSegment> late = LateSegments(600);

  std::vector<uint64_t> got(kReaders, 0);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      QueryStats stats;
      got[static_cast<size_t>(r)] =
          RunProbes(tree_.get(), probes_[static_cast<size_t>(r)], &gate,
                    &stats);
    });
  }
  threads.emplace_back([&] {
    for (size_t i = 0; i < late.size(); i += 20) {
      auto guard = gate.LockExclusive();
      for (size_t j = i; j < std::min(late.size(), i + 20); ++j) {
        ASSERT_TRUE(tree_->Insert(late[j]).ok());
      }
    }
  });
  for (std::thread& t : threads) t.join();
  tree_->AttachNodeCache(nullptr);

  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(got[static_cast<size_t>(r)], expected_[static_cast<size_t>(r)])
        << "reader " << r;
  }
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_TRUE(tree_->CheckInvariants().ok());
  // Capacity holds under eviction, and once no call is in flight every
  // retired node is freed.
  EXPECT_LE(cache.cached_nodes(), cache.capacity());
  cache.Reclaim();
  EXPECT_EQ(cache.retired_nodes(), 0u);
}

TEST_F(NodeCacheConcurrencyTest, HitsPlusMissesEqualLookupsAcrossThreads) {
  DecodedNodeCache cache(16);
  tree_->AttachNodeCache(&cache);
  TreeGate gate(&file_, nullptr, nullptr, &cache);
  const NodeAccounting before = CheckNodeAccounting();

  std::vector<QueryStats> stats(kReaders);
  std::vector<uint64_t> got(kReaders, 0);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      const size_t i = static_cast<size_t>(r);
      got[i] = RunProbes(tree_.get(), probes_[i], &gate, &stats[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  tree_->AttachNodeCache(nullptr);

  uint64_t hits = 0;
  uint64_t reads = 0;
  for (int r = 0; r < kReaders; ++r) {
    const size_t i = static_cast<size_t>(r);
    EXPECT_EQ(got[i], expected_[i]) << "reader " << r;
    hits += stats[i].decoded_hits.load();
    reads += stats[i].node_reads.load();
  }
  // Uncached loads read the page file directly, so every miss is a node
  // read and every hit a decoded hit: the per-thread counter stripes must
  // sum to exactly the lookups the readers made.
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), reads);
  EXPECT_EQ(cache.hits() + cache.misses(), hits + reads);
  const NodeAccounting delta = CheckNodeAccounting() - before;
  if (MetricsEnabled()) {
    EXPECT_EQ(delta.loads, hits + reads);
    EXPECT_EQ(delta.decoded_hits, hits);
    EXPECT_EQ(delta.physical_reads, reads);
  }
}

TEST(NodeCacheLifetimeTest, NpdqHoldsAncestorsWhileOthersEvict) {
  // A one-node cache: loading any child evicts the parent the recursion is
  // still iterating, and three other threads evict everything they do not
  // load themselves. Under ASan a node freed before its reader's call
  // returned is a use-after-free report.
  PageFile file;
  auto tree_or = RTree::Create(&file, RTree::Options());
  ASSERT_TRUE(tree_or.ok());
  std::unique_ptr<RTree> tree = std::move(tree_or).value();
  Rng rng(4711);
  const std::vector<MotionSegment> data =
      RandomSegments(&rng, 3000, 2, kSize, kHorizon);
  for (const auto& m : data) ASSERT_TRUE(tree->Insert(m).ok());
  ASSERT_TRUE(file.Publish().ok());
  ASSERT_GE(tree->height(), 2);

  DecodedNodeCache cache(1);
  tree->AttachNodeCache(&cache);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      Rng qrng(static_cast<uint64_t>(31 + r));
      for (int i = 0; i < 25; ++i) {
        const StBox q = RandomQueryBox(&qrng, 2, kSize, kHorizon, 60.0, 8.0);
        NonPredictiveDynamicQuery npdq(tree.get());
        auto got = npdq.Execute(q);
        if (!got.ok() ||
            KeysOf(*got) !=
                KeysOf(dqmo::testing::BruteForceRangeBb(data, q))) {
          failed = true;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  tree->AttachNodeCache(nullptr);
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(cache.cached_nodes(), 1u);
  cache.Reclaim();
  EXPECT_EQ(cache.retired_nodes(), 0u);
}

TEST(NodeCacheLifetimeTest, UncachedNodesLiveUntilTheSectionCloses) {
  PageFile file;
  auto tree_or = RTree::Create(&file, RTree::Options());
  ASSERT_TRUE(tree_or.ok());
  std::unique_ptr<RTree> tree = std::move(tree_or).value();
  Rng rng(5);
  for (const auto& m : RandomSegments(&rng, 500, 2, kSize, kHorizon)) {
    ASSERT_TRUE(tree->Insert(m).ok());
  }
  EXPECT_FALSE(InEpochSection());
  {
    EpochGuard outer;
    const SoaNode* root = nullptr;
    {
      EpochGuard inner;  // Nested: does not end the outer section.
      QueryStats stats;
      auto loaded = tree->LoadNodeSoa(tree->root(), &stats);
      ASSERT_TRUE(loaded.ok());
      root = *loaded;
    }
    EXPECT_TRUE(InEpochSection());
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->self, tree->root());  // Still owned by `outer`.
  }
  EXPECT_FALSE(InEpochSection());
}

}  // namespace
}  // namespace dqmo
