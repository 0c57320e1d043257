#include "rtree/bulk_load.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/string_util.h"

namespace dqmo {
namespace {

/// Center of a segment's bounds along sort dimension `dim`, where dim 0 is
/// time and dim k (k >= 1) is spatial coordinate k-1.
double SortKey(const MotionSegment& m, int dim) {
  if (dim == 0) return m.seg.time.mid();
  return 0.5 * (m.seg.p0[dim - 1] + m.seg.p1[dim - 1]);
}

/// Recursively sort-tile `items[begin, end)` over sort dimensions
/// `dim..last`, appending groups of at most `group_size` items, in tile
/// order, to `groups` (as [begin, end) index pairs).
void Tile(std::vector<MotionSegment>* items, size_t begin, size_t end,
          int dim, int num_dims, size_t group_size,
          std::vector<std::pair<size_t, size_t>>* groups) {
  const size_t n = end - begin;
  if (n == 0) return;
  if (n <= group_size) {
    groups->emplace_back(begin, end);
    return;
  }
  std::sort(items->begin() + static_cast<ptrdiff_t>(begin),
            items->begin() + static_cast<ptrdiff_t>(end),
            [dim](const MotionSegment& a, const MotionSegment& b) {
              return SortKey(a, dim) < SortKey(b, dim);
            });
  if (dim == num_dims - 1) {
    // Last dimension: emit consecutive runs of group_size.
    for (size_t i = begin; i < end; i += group_size) {
      groups->emplace_back(i, std::min(i + group_size, end));
    }
    return;
  }
  // Number of leaf-groups this range will produce, and slab count per STR:
  // S = ceil(P^(1/remaining_dims)) slabs along this dimension.
  const double p = std::ceil(static_cast<double>(n) /
                             static_cast<double>(group_size));
  const int remaining = num_dims - dim;
  const auto slabs = static_cast<size_t>(std::max(
      1.0, std::ceil(std::pow(p, 1.0 / static_cast<double>(remaining)))));
  const size_t per_slab_raw = (n + slabs - 1) / slabs;
  const size_t per_slab =
      (per_slab_raw + group_size - 1) / group_size * group_size;
  for (size_t i = begin; i < end; i += per_slab) {
    Tile(items, i, std::min(i + per_slab, end), dim + 1, num_dims,
         group_size, groups);
  }
}

}  // namespace

Result<std::unique_ptr<RTree>> BulkLoad(PageStore* file,
                                        std::vector<MotionSegment> segments,
                                        const BulkLoadOptions& options) {
  if (options.pack_fraction <= 0.0 || options.pack_fraction > 1.0) {
    return Status::InvalidArgument("pack fraction must be in (0, 1]");
  }
  DQMO_ASSIGN_OR_RETURN(std::unique_ptr<RTree> tree,
                        RTree::Create(file, options.tree));
  if (segments.empty()) return tree;

  const int dims = options.tree.dims;
  for (MotionSegment& m : segments) {
    if (m.seg.dims() != dims) {
      return Status::InvalidArgument("segment dims mismatch in bulk load");
    }
    if (m.seg.time.empty()) {
      return Status::InvalidArgument("motion segment has empty valid time");
    }
    m.seg = QuantizeStored(m.seg);
    tree->max_speed_ = std::max(tree->max_speed_, m.seg.Speed());
  }

  const auto leaf_group = static_cast<size_t>(std::max(
      1, static_cast<int>(tree->leaf_capacity() * options.pack_fraction)));
  const auto internal_group = static_cast<size_t>(std::max(
      2,
      static_cast<int>(tree->internal_capacity() * options.pack_fraction)));

  std::vector<std::pair<size_t, size_t>> groups;
  Tile(&segments, 0, segments.size(), 0, dims + 1, leaf_group, &groups);

  // Build leaves. Create() made page 1 an empty root leaf; reuse it as the
  // first leaf.
  std::vector<ChildEntry> level_entries;
  level_entries.reserve(groups.size());
  bool first = true;
  for (const auto& [begin, end] : groups) {
    Node leaf;
    leaf.self = first ? tree->root_ : file->Allocate();
    if (!first) ++tree->num_nodes_;
    first = false;
    leaf.level = 0;
    leaf.dims = dims;
    leaf.segments.assign(
        segments.begin() + static_cast<ptrdiff_t>(begin),
        segments.begin() + static_cast<ptrdiff_t>(end));
    if (leaf.count() > leaf.capacity()) {
      return Status::Internal("bulk load produced an overfull leaf");
    }
    DQMO_RETURN_IF_ERROR(tree->StoreNode(&leaf));
    level_entries.push_back(leaf.ComputeEntry());
  }

  // Pack upward until a single node remains.
  int level = 1;
  while (level_entries.size() > 1) {
    std::vector<ChildEntry> next;
    for (size_t i = 0; i < level_entries.size(); i += internal_group) {
      Node node;
      node.self = file->Allocate();
      ++tree->num_nodes_;
      node.level = static_cast<uint16_t>(level);
      node.dims = dims;
      const size_t end = std::min(i + internal_group, level_entries.size());
      node.children.assign(
          level_entries.begin() + static_cast<ptrdiff_t>(i),
          level_entries.begin() + static_cast<ptrdiff_t>(end));
      DQMO_RETURN_IF_ERROR(tree->StoreNode(&node));
      next.push_back(node.ComputeEntry());
    }
    level_entries = std::move(next);
    ++level;
  }
  tree->root_ = level_entries.front().child;
  tree->root_bounds_ = level_entries.front().bounds;
  tree->height_ = level;
  tree->num_segments_ = segments.size();
  DQMO_RETURN_IF_ERROR(tree->Flush());
  return tree;
}

}  // namespace dqmo
