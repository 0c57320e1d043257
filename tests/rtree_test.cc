// Tests for the NSI R-tree: construction, invariants, exact range search
// against brute force, persistence, accounting, and the update-management
// hooks (same-path splits, LCA reporting, timestamps).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "test_util.h"

namespace dqmo {
namespace {

using ::dqmo::testing::BruteForceRange;
using ::dqmo::testing::BruteForceRangeBb;
using ::dqmo::testing::KeysOf;
using ::dqmo::testing::RandomSegments;

std::unique_ptr<RTree> MakeTree(PageFile* file, int dims = 2) {
  RTree::Options options;
  options.dims = dims;
  auto tree = RTree::Create(file, options);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(tree).value();
}

TEST(RTreeCreateTest, FreshTreeIsEmpty) {
  PageFile file;
  auto tree = MakeTree(&file);
  EXPECT_EQ(tree->num_segments(), 0u);
  EXPECT_EQ(tree->height(), 1);
  EXPECT_EQ(tree->num_nodes(), 1u);
  EXPECT_TRUE(tree->CheckInvariants().ok());
  QueryStats stats;
  auto result = tree->RangeSearch(
      StBox(Box(Interval(0, 100), Interval(0, 100)), Interval(0, 100)),
      &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(stats.node_reads, 1u);  // Root leaf still read once.
}

TEST(RTreeCreateTest, RejectsNonEmptyFile) {
  PageFile file;
  file.Allocate();
  EXPECT_TRUE(
      RTree::Create(&file, RTree::Options()).status().IsFailedPrecondition());
}

TEST(RTreeCreateTest, RejectsBadOptions) {
  PageFile file;
  RTree::Options options;
  options.dims = 7;
  EXPECT_TRUE(RTree::Create(&file, options).status().IsInvalidArgument());
  options.dims = 2;
  options.fill_factor = 0.9;  // > 0.5 cannot be a split minimum.
  EXPECT_TRUE(RTree::Create(&file, options).status().IsInvalidArgument());
}

TEST(RTreeInsertTest, RejectsDimsMismatch) {
  PageFile file;
  auto tree = MakeTree(&file, 2);
  MotionSegment m(1, StSegment(Vec(0.0, 0.0, 0.0), Vec(1.0, 1.0, 1.0),
                               Interval(0.0, 1.0)));
  EXPECT_TRUE(tree->Insert(m).IsInvalidArgument());
}

TEST(RTreeInsertTest, RejectsEmptyValidTime) {
  PageFile file;
  auto tree = MakeTree(&file);
  MotionSegment m(1, StSegment(Vec(0.0, 0.0), Vec(1.0, 1.0),
                               Interval(2.0, 1.0)));
  EXPECT_TRUE(tree->Insert(m).IsInvalidArgument());
}

TEST(RTreeInsertTest, GrowsAndKeepsInvariants) {
  PageFile file;
  auto tree = MakeTree(&file);
  Rng rng(21);
  const auto data = RandomSegments(&rng, 2000, 2, 100, 100);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree->Insert(data[i]).ok());
    if ((i + 1) % 500 == 0) {
      ASSERT_TRUE(tree->CheckInvariants().ok()) << "after " << i + 1;
    }
  }
  EXPECT_EQ(tree->num_segments(), 2000u);
  EXPECT_GE(tree->height(), 2);
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

class RTreeSearchTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    tree_ = MakeTree(&file_);
    Rng rng(GetParam());
    data_ = RandomSegments(&rng, 3000, 2, 100, 100);
    for (const auto& m : data_) ASSERT_TRUE(tree_->Insert(m).ok());
    rng_ = Rng(GetParam() + 1);
  }

  PageFile file_;
  std::unique_ptr<RTree> tree_;
  std::vector<MotionSegment> data_;
  Rng rng_{0};
};

TEST_P(RTreeSearchTest, RangeSearchMatchesBruteForce) {
  for (int q = 0; q < 60; ++q) {
    const StBox query = dqmo::testing::RandomQueryBox(&rng_, 2, 100, 100);
    QueryStats stats;
    auto result = tree_->RangeSearch(query, &stats);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(KeysOf(*result), KeysOf(BruteForceRange(data_, query)));
    EXPECT_EQ(stats.objects_returned, result->size());
    EXPECT_GT(stats.node_reads, 0u);
  }
}

TEST_P(RTreeSearchTest, BbOnlySearchIsSupersetAndMatchesBbBruteForce) {
  for (int q = 0; q < 40; ++q) {
    const StBox query = dqmo::testing::RandomQueryBox(&rng_, 2, 100, 100);
    QueryStats stats;
    auto exact = tree_->RangeSearch(query, &stats);
    auto bb = tree_->RangeSearchBbOnly(query, &stats);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(bb.ok());
    const auto exact_keys = KeysOf(*exact);
    const auto bb_keys = KeysOf(*bb);
    EXPECT_TRUE(std::includes(bb_keys.begin(), bb_keys.end(),
                              exact_keys.begin(), exact_keys.end()));
    EXPECT_EQ(bb_keys, KeysOf(BruteForceRangeBb(data_, query)));
  }
}

TEST_P(RTreeSearchTest, EmptyQueryReturnsNothing) {
  QueryStats stats;
  auto result = tree_->RangeSearch(StBox(), &stats);
  // Empty box has wrong dims (0-size spatial): construct a real empty one.
  StBox q(Box(Interval(5.0, 4.0), Interval(0.0, 100.0)),
          Interval(0.0, 100.0));
  auto r2 = tree_->RangeSearch(q, &stats);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
  (void)result;
}

TEST_P(RTreeSearchTest, LeafReadsBoundedByTotalReads) {
  const StBox query = dqmo::testing::RandomQueryBox(&rng_, 2, 100, 100);
  QueryStats stats;
  ASSERT_TRUE(tree_->RangeSearch(query, &stats).ok());
  EXPECT_LE(stats.leaf_reads, stats.node_reads);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RTreeSearchTest,
                         ::testing::Values(31, 32, 33));

TEST(RTreePersistenceTest, FlushSaveLoadOpenRoundTrip) {
  const std::string path =
      std::string(::testing::TempDir()) + "/rtree_roundtrip.pgf";
  Rng rng(41);
  const auto data = RandomSegments(&rng, 1500, 2, 100, 100);
  StBox query = dqmo::testing::RandomQueryBox(&rng, 2, 100, 100, 40, 20);

  std::set<MotionSegment::Key> expected;
  {
    PageFile file;
    auto tree = MakeTree(&file);
    for (const auto& m : data) ASSERT_TRUE(tree->Insert(m).ok());
    QueryStats stats;
    expected = KeysOf(tree->RangeSearch(query, &stats).value());
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(file.SaveTo(path).ok());
  }
  {
    PageFile file;
    ASSERT_TRUE(file.LoadFrom(path).ok());
    auto tree = RTree::Open(&file);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    EXPECT_EQ((*tree)->num_segments(), 1500u);
    EXPECT_TRUE((*tree)->CheckInvariants().ok());
    QueryStats stats;
    EXPECT_EQ(KeysOf((*tree)->RangeSearch(query, &stats).value()), expected);
  }
  std::remove(path.c_str());
}

/// RootBounds() must equal the cover recomputed from the root page, and
/// answering it must not read a page.
void ExpectRootBoundsExact(const RTree& tree, const PageFile& file,
                           const std::string& where) {
  const uint64_t reads0 = file.stats().physical_reads.load();
  const Result<StBox> bounds = tree.RootBounds();
  EXPECT_EQ(file.stats().physical_reads.load(), reads0) << where;
  ASSERT_TRUE(bounds.ok()) << where;
  QueryStats scratch;
  auto root = tree.LoadNode(tree.root(), &scratch);
  ASSERT_TRUE(root.ok()) << where;
  EXPECT_EQ(*bounds, root->ComputeBounds()) << where;
}

TEST(RTreeRootBoundsTest, TrackMutationsWithoutPageReads) {
  const std::string path =
      std::string(::testing::TempDir()) + "/rtree_root_bounds.pgf";
  Rng rng(808);
  std::vector<MotionSegment> data = RandomSegments(&rng, 1200, 2, 100, 100);
  PageFile file;
  auto tree = MakeTree(&file);
  ExpectRootBoundsExact(*tree, file, "empty");
  int root_splits = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const int height = tree->height();
    ASSERT_TRUE(tree->Insert(data[i]).ok());
    if (tree->height() != height) ++root_splits;
    if (i % 37 == 0 || tree->height() != height) {
      ExpectRootBoundsExact(*tree, file, "insert " + std::to_string(i));
    }
  }
  EXPECT_GE(root_splits, 1);
  // Removes shrink the cover, condense nodes, and collapse the root.
  for (size_t i = 0; i < data.size(); i += 2) {
    ASSERT_TRUE(tree->Remove(data[i]).ok());
    if (i % 74 == 0) {
      ExpectRootBoundsExact(*tree, file, "remove " + std::to_string(i));
    }
  }
  for (size_t i = 1; i + 2 < data.size(); i += 2) {
    ASSERT_TRUE(tree->Remove(data[i]).ok());
  }
  EXPECT_EQ(tree->height(), 1);
  ExpectRootBoundsExact(*tree, file, "drained");
  // Reopen and open from a saved image.
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Reopen().ok());
  ExpectRootBoundsExact(*tree, file, "reopen");
  ASSERT_TRUE(file.SaveTo(path).ok());
  {
    PageFile loaded;
    ASSERT_TRUE(loaded.LoadFrom(path).ok());
    auto opened = RTree::Open(&loaded);
    ASSERT_TRUE(opened.ok());
    ExpectRootBoundsExact(**opened, loaded, "open");
  }
  std::remove(path.c_str());
  // Bulk load.
  PageFile bulk_file;
  BulkLoadOptions bulk;
  auto bulk_tree = BulkLoad(&bulk_file, data, bulk);
  ASSERT_TRUE(bulk_tree.ok());
  EXPECT_GE((*bulk_tree)->height(), 2);
  ExpectRootBoundsExact(**bulk_tree, bulk_file, "bulk load");
  ASSERT_TRUE((*bulk_tree)->Insert(RandomSegments(&rng, 1, 2, 100, 100)[0])
                  .ok());
  ExpectRootBoundsExact(**bulk_tree, bulk_file, "bulk load + insert");
}

TEST(RTreePersistenceTest, OpenRejectsEmptyOrGarbage) {
  PageFile empty;
  EXPECT_TRUE(RTree::Open(&empty).status().IsFailedPrecondition());
  PageFile garbage;
  garbage.Allocate();
  EXPECT_TRUE(RTree::Open(&garbage).status().IsCorruption());
}

TEST(RTreeStatsTest, SearchThroughBufferPoolOnlyChargesMisses) {
  PageFile file;
  auto tree = MakeTree(&file);
  Rng rng(51);
  for (const auto& m : RandomSegments(&rng, 2000, 2, 100, 100)) {
    ASSERT_TRUE(tree->Insert(m).ok());
  }
  const StBox query(Box(Interval(10, 40), Interval(10, 40)),
                    Interval(10, 40));
  QueryStats cold;
  BufferPool pool(&file, 10000);  // Large enough to never evict.
  ASSERT_TRUE(tree->RangeSearch(query, &cold, &pool).ok());
  QueryStats warm;
  ASSERT_TRUE(tree->RangeSearch(query, &warm, &pool).ok());
  EXPECT_GT(cold.node_reads, 0u);
  EXPECT_EQ(warm.node_reads, 0u);  // All hits: no disk accesses charged.
  EXPECT_EQ(warm.distance_computations, cold.distance_computations);
}

// Update-listener recorder for the notification tests.
class RecordingListener : public UpdateListener {
 public:
  void OnObjectInserted(const MotionSegment& m) override {
    objects.push_back(m);
  }
  void OnSubtreeCreated(const ChildEntry& subtree, int level) override {
    subtrees.emplace_back(subtree, level);
  }
  void OnRootSplit(PageId new_root) override {
    root_splits.push_back(new_root);
  }

  std::vector<MotionSegment> objects;
  std::vector<std::pair<ChildEntry, int>> subtrees;
  std::vector<PageId> root_splits;
};

TEST(RTreeUpdateTest, ExactlyOneNotificationPerInsert) {
  PageFile file;
  auto tree = MakeTree(&file);
  RecordingListener listener;
  tree->AddListener(&listener);
  Rng rng(61);
  const int n = 1500;
  for (const auto& m : RandomSegments(&rng, n, 2, 100, 100)) {
    ASSERT_TRUE(tree->Insert(m).ok());
  }
  EXPECT_EQ(listener.objects.size() + listener.subtrees.size() +
                listener.root_splits.size(),
            static_cast<size_t>(n));
  EXPECT_GT(listener.subtrees.size(), 0u);    // Some splits happened.
  EXPECT_GE(listener.root_splits.size(), 1u);  // Tree grew at least once.
  tree->RemoveListener(&listener);
  ASSERT_TRUE(tree
                  ->Insert(MotionSegment(
                      9999, StSegment(Vec(1, 1), Vec(2, 2),
                                      Interval(0.0, 1.0))))
                  .ok());
  EXPECT_EQ(listener.objects.size() + listener.subtrees.size() +
                listener.root_splits.size(),
            static_cast<size_t>(n));  // No longer notified.
}

TEST(RTreeUpdateTest, SubtreeReportCoversInsertedSegment) {
  // Whenever a split is reported, the reported subtree entry's geometry
  // must cover the motion segment that caused it (the same-path property
  // that lets one LCA entry stand for all new nodes).
  PageFile file;
  auto tree = MakeTree(&file);
  RecordingListener listener;
  tree->AddListener(&listener);
  Rng rng(62);
  const auto data = RandomSegments(&rng, 3000, 2, 100, 100);
  for (const auto& m : data) {
    const size_t subtrees_before = listener.subtrees.size();
    ASSERT_TRUE(tree->Insert(m).ok());
    if (listener.subtrees.size() > subtrees_before) {
      const auto& [entry, level] = listener.subtrees.back();
      EXPECT_TRUE(entry.bounds.Contains(QuantizeOutward(m.Bounds())))
          << "reported LCA subtree does not cover the inserted segment";
      EXPECT_GE(level, 0);
      EXPECT_LT(level, tree->height());
      // The reported subtree must actually contain the segment: search it.
      QueryStats stats;
      auto node = tree->LoadNode(entry.child, &stats);
      ASSERT_TRUE(node.ok());
      EXPECT_EQ(node->level, level);
    }
  }
  tree->RemoveListener(&listener);
}

TEST(RTreeUpdateTest, StampsAdvanceOnInsertPath) {
  PageFile file;
  auto tree = MakeTree(&file);
  Rng rng(63);
  for (const auto& m : RandomSegments(&rng, 500, 2, 100, 100)) {
    ASSERT_TRUE(tree->Insert(m).ok());
  }
  const UpdateStamp before = tree->stamp();
  MotionSegment m(7777,
                  StSegment(Vec(50, 50), Vec(51, 51), Interval(10, 11)));
  ASSERT_TRUE(tree->Insert(m).ok());
  EXPECT_EQ(tree->stamp(), before + 1);
  // The root must carry the new stamp (insertion path is stamped).
  QueryStats stats;
  auto root = tree->LoadNode(tree->root(), &stats);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->stamp, tree->stamp());
}

TEST(RTreeUpdateTest, InsertedSegmentsImmediatelyQueryable) {
  PageFile file;
  auto tree = MakeTree(&file);
  Rng rng(64);
  std::vector<MotionSegment> data;
  for (int i = 0; i < 2000; ++i) {
    data.push_back(dqmo::testing::RandomSegment(
        &rng, static_cast<ObjectId>(i), 2, 100, 100));
    ASSERT_TRUE(tree->Insert(data.back()).ok());
    if (i % 500 == 499) {
      const StBox q = dqmo::testing::RandomQueryBox(&rng, 2, 100, 100);
      QueryStats stats;
      auto result = tree->RangeSearch(q, &stats);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(KeysOf(*result), KeysOf(BruteForceRange(data, q)));
    }
  }
}

TEST(RTreeThreeDimsTest, SearchMatchesBruteForceIn3d) {
  PageFile file;
  auto tree = MakeTree(&file, 3);
  Rng rng(65);
  const auto data = RandomSegments(&rng, 1200, 3, 50, 50);
  for (const auto& m : data) ASSERT_TRUE(tree->Insert(m).ok());
  EXPECT_TRUE(tree->CheckInvariants().ok());
  for (int q = 0; q < 30; ++q) {
    const StBox query = dqmo::testing::RandomQueryBox(&rng, 3, 50, 50);
    QueryStats stats;
    auto result = tree->RangeSearch(query, &stats);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(KeysOf(*result), KeysOf(BruteForceRange(data, query)));
  }
}

}  // namespace
}  // namespace dqmo

namespace dqmo {
namespace {

TEST(RTreeRstarTest, RstarBuiltTreeMatchesBruteForce) {
  PageFile file;
  RTree::Options options;
  options.split_policy = SplitPolicy::kRstar;
  auto tree = RTree::Create(&file, options);
  ASSERT_TRUE(tree.ok());
  Rng rng(2222);
  const auto data = dqmo::testing::RandomSegments(&rng, 3000, 2, 100, 100);
  for (const auto& m : data) ASSERT_TRUE((*tree)->Insert(m).ok());
  ASSERT_TRUE((*tree)->CheckInvariants().ok());
  for (int q = 0; q < 40; ++q) {
    const StBox query = dqmo::testing::RandomQueryBox(&rng, 2, 100, 100);
    QueryStats stats;
    auto result = (*tree)->RangeSearch(query, &stats);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(dqmo::testing::KeysOf(*result),
              dqmo::testing::KeysOf(
                  dqmo::testing::BruteForceRange(data, query)));
  }
}

TEST(RTreeRstarTest, SplitPolicyPersistsAcrossReopen) {
  const std::string path =
      std::string(::testing::TempDir()) + "/rstar_persist.pgf";
  {
    PageFile file;
    RTree::Options options;
    options.split_policy = SplitPolicy::kRstar;
    auto tree = RTree::Create(&file, options);
    ASSERT_TRUE(tree.ok());
    MotionSegment m(1, StSegment(Vec(1, 1), Vec(2, 2), Interval(0, 1)));
    ASSERT_TRUE((*tree)->Insert(m).ok());
    ASSERT_TRUE((*tree)->Flush().ok());
    ASSERT_TRUE(file.SaveTo(path).ok());
  }
  {
    PageFile file;
    ASSERT_TRUE(file.LoadFrom(path).ok());
    auto tree = RTree::Open(&file);
    ASSERT_TRUE(tree.ok());
    // Grow enough to force splits under the restored policy.
    Rng rng(3333);
    for (const auto& m :
         dqmo::testing::RandomSegments(&rng, 1000, 2, 100, 100)) {
      ASSERT_TRUE((*tree)->Insert(m).ok());
    }
    EXPECT_TRUE((*tree)->CheckInvariants().ok());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dqmo
