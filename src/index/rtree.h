#ifndef MARS_INDEX_RTREE_H_
#define MARS_INDEX_RTREE_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "geometry/box.h"

namespace mars::index {

class PagedTree3;

// Split algorithm for overflowing nodes.
enum class SplitPolicy {
  kGuttmanQuadratic,  // Guttman 1984 quadratic split (classic R-tree)
  kRStar,             // Beckmann et al. 1990 axis/margin split (R*-tree)
};

// Tuning knobs. The defaults mirror the paper's experimental setup: up to
// 20 entries per node, the fan-out of its 4 KB pages (Sec. VII-D).
struct RTreeOptions {
  int32_t node_capacity = 20;
  SplitPolicy split_policy = SplitPolicy::kRStar;
  // R*-tree forced reinsertion: on the first overflow per level per
  // insertion, re-insert the 30% of entries farthest from the node center
  // instead of splitting.
  bool forced_reinsert = true;
};

// Relaxed atomic counter that behaves like a plain int64_t at the call
// sites (increment, add, read, copy). Queries of a const-shared tree bump
// these counters concurrently; relaxed ordering suffices because the
// counters carry no synchronization — they are pure statistics.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(int64_t v) : v_(v) {}  // NOLINT: implicit by design
  RelaxedCounter(const RelaxedCounter& o) : v_(o.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  int64_t load() const { return v_.load(std::memory_order_relaxed); }
  operator int64_t() const { return load(); }  // NOLINT: implicit by design

  RelaxedCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator+=(int64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<int64_t> v_{0};
};

// Cumulative access counter, the "I/O cost" metric of the paper's
// evaluation: every node a query visits counts as one page access. It is
// a relaxed atomic so a const tree can be shared across the fleet's worker
// threads; per-exchange accounting uses the per-call counts the query
// methods return, never deltas of this cumulative counter (deltas would
// interleave across clients).
struct RTreeStats {
  RelaxedCounter query_node_accesses;
};

// In-memory R-tree / R*-tree over axis-aligned boxes in `Dim` dimensions
// with int64 payloads. MARS instantiates it with Dim = 2 (object MBRs for
// the naive system), Dim = 3 (the paper's x-y-w experimental index), and
// Dim = 4 (the full x-y-z-w index of Sec. VI-B).
//
// Not thread-safe; queries are logically const but mutate the access
// counters (declared mutable).
template <size_t Dim>
class RTree {
 public:
  using BoxT = geometry::Box<Dim>;

  struct Entry {
    BoxT box;
    int64_t value = 0;
  };

  explicit RTree(RTreeOptions options = RTreeOptions())
      : options_(options) {
    MARS_CHECK_GE(options_.node_capacity, 4);
    min_fill_ = std::max<int32_t>(
        2, static_cast<int32_t>(options_.node_capacity * kMinFillFraction));
    root_ = std::make_unique<Node>(/*is_leaf=*/true);
  }

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&&) = default;
  RTree& operator=(RTree&&) = default;

  int64_t size() const { return size_; }
  int32_t height() const { return height_; }

  const RTreeStats& stats() const { return stats_; }
  void ResetStats() { stats_ = RTreeStats(); }

  // Inserts one entry. Duplicate (box, value) pairs are allowed.
  void Insert(const BoxT& box, int64_t value) {
    reinserted_levels_.assign(height_, false);
    InsertEntry(Entry{box, value}, /*target_level=*/0);
    ++size_;
  }

  // Sort-Tile-Recursive bulk loading (Leutenegger et al. 1997): packs the
  // entries into full nodes tiled along the space-sorted axes. Roughly an
  // order of magnitude faster to build than repeated insertion and at
  // least as cheap to query on static data; MARS's server-side indexes
  // are static, so the access methods build this way.
  static RTree BulkLoad(std::vector<Entry> entries,
                        RTreeOptions options = RTreeOptions()) {
    RTree tree(options);
    if (entries.empty()) return tree;
    tree.size_ = static_cast<int64_t>(entries.size());

    // Pack leaves.
    std::vector<std::unique_ptr<Node>> level = PackLeaves(
        std::move(entries), options.node_capacity, tree.min_fill_);
    int32_t height = 1;
    // Pack internal levels until one root remains.
    while (level.size() > 1) {
      level = PackInternal(std::move(level), options.node_capacity,
                           tree.min_fill_);
      ++height;
    }
    tree.root_ = std::move(level.front());
    tree.height_ = height;
    tree.reinserted_levels_.assign(height, false);
    return tree;
  }

  // Appends the values of all entries whose box intersects `window`.
  // Returns the node accesses of this call (also added to the cumulative
  // stats — with a single atomic add, so concurrent queries on a shared
  // tree stay cheap and the per-call count stays exact).
  int64_t Query(const BoxT& window, std::vector<int64_t>* out) const {
    int64_t accesses = 0;
    QueryRec(root_.get(), window, out, &accesses);
    stats_.query_node_accesses += accesses;
    return accesses;
  }

  // Bounding box of the whole tree (empty box when the tree is empty).
  BoxT Bounds() const { return root_->mbr; }

  // k-nearest-neighbour query (best-first / Hjaltason & Samet): the k
  // entries whose boxes are nearest to `point` (minimum box distance),
  // nearest first. Ties are broken arbitrarily. Counts node accesses like
  // Query and returns this call's count.
  int64_t NearestNeighbors(const std::array<double, Dim>& point, int32_t k,
                           std::vector<Entry>* out) const {
    out->clear();
    int64_t accesses = 0;
    if (size_ == 0 || k <= 0) return accesses;

    // Min-heap over (distance², node or entry).
    struct HeapItem {
      double distance = 0.0;
      const Node* node = nullptr;   // set for subtrees
      const Entry* entry = nullptr;  // set for leaf entries
      bool operator>(const HeapItem& o) const {
        return distance > o.distance;
      }
    };
    std::priority_queue<HeapItem, std::vector<HeapItem>,
                        std::greater<HeapItem>> heap;
    heap.push(HeapItem{MinDistanceSquared(root_->mbr, point), root_.get(),
                       nullptr});
    while (!heap.empty() && static_cast<int32_t>(out->size()) < k) {
      const HeapItem item = heap.top();
      heap.pop();
      if (item.entry != nullptr) {
        out->push_back(*item.entry);
        continue;
      }
      ++accesses;
      const Node* node = item.node;
      if (node->is_leaf) {
        for (const Entry& e : node->entries) {
          heap.push(HeapItem{MinDistanceSquared(e.box, point), nullptr, &e});
        }
      } else {
        for (const auto& child : node->children) {
          heap.push(HeapItem{MinDistanceSquared(child->mbr, point),
                             child.get(), nullptr});
        }
      }
    }
    stats_.query_node_accesses += accesses;
    return accesses;
  }

  // Squared minimum distance from `point` to `box` (0 when inside).
  static double MinDistanceSquared(const BoxT& box,
                                   const std::array<double, Dim>& point) {
    double d2 = 0.0;
    for (size_t k = 0; k < Dim; ++k) {
      double d = 0.0;
      if (point[k] < box.lo(k)) {
        d = box.lo(k) - point[k];
      } else if (point[k] > box.hi(k)) {
        d = point[k] - box.hi(k);
      }
      d2 += d * d;
    }
    return d2;
  }

  // Structural invariants: fanout bounds, MBR containment and tightness,
  // uniform leaf depth, size consistency. Used by tests.
  common::Status CheckInvariants() const {
    int64_t counted = 0;
    MARS_RETURN_IF_ERROR(CheckNode(root_.get(), /*is_root=*/true, 0,
                                   &counted));
    if (counted != size_) {
      return common::InternalError(
          "size mismatch: counted " + std::to_string(counted) +
          " entries, size() = " + std::to_string(size_));
    }
    return common::OkStatus();
  }

 private:
  // Writes the pointer nodes to pages directly (see index/access.h).
  friend class PagedTree3;

  // Minimum entries per node after a split, as a fraction of capacity.
  // 40% is the R*-tree recommendation.
  static constexpr double kMinFillFraction = 0.4;
  // Share of an overflowing node's entries that forced reinsertion
  // re-inserts.
  static constexpr double kReinsertFraction = 0.3;

  struct Node {
    explicit Node(bool leaf) : is_leaf(leaf) {}

    bool is_leaf;
    BoxT mbr;  // tight bounds of the node's entries / children
    // Leaf payload.
    std::vector<Entry> entries;
    // Internal payload; children[i]'s bounds are children[i]->mbr.
    std::vector<std::unique_ptr<Node>> children;

    int32_t count() const {
      return is_leaf ? static_cast<int32_t>(entries.size())
                     : static_cast<int32_t>(children.size());
    }

    void RecomputeMbr() {
      mbr = BoxT();
      if (is_leaf) {
        for (const Entry& e : entries) mbr.Extend(e.box);
      } else {
        for (const auto& c : children) mbr.Extend(c->mbr);
      }
    }
  };

  // --- Bulk loading ------------------------------------------------------

  // Recursively sorts items[lo, hi) into Sort-Tile-Recursive order:
  // slabbed along each axis in turn so that consecutive runs of
  // `capacity` items form spatially tight tiles.
  template <typename Item, typename GetBox>
  static void StrSortRange(std::vector<Item>& items, size_t lo, size_t hi,
                           size_t axis, int32_t capacity, GetBox get_box) {
    std::sort(items.begin() + static_cast<int64_t>(lo),
              items.begin() + static_cast<int64_t>(hi),
              [axis, &get_box](const Item& a, const Item& b) {
                return get_box(a).Center()[axis] <
                       get_box(b).Center()[axis];
              });
    if (axis + 1 == Dim) return;
    const size_t n = hi - lo;
    const size_t cap = static_cast<size_t>(capacity);
    const size_t pages = (n + cap - 1) / cap;
    const double remaining_dims = static_cast<double>(Dim - axis);
    const size_t slabs = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(std::pow(static_cast<double>(pages),
                                  1.0 / remaining_dims))));
    const size_t per_slab = ((pages + slabs - 1) / slabs) * cap;
    for (size_t s = lo; s < hi; s += per_slab) {
      StrSortRange(items, s, std::min(hi, s + per_slab), axis + 1, capacity,
                   get_box);
    }
  }

  // Chunk boundaries over `n` items such that every chunk has between
  // min_fill and capacity items (the final two chunks are rebalanced).
  static std::vector<size_t> ChunkSizes(size_t n, int32_t capacity,
                                        int32_t min_fill) {
    std::vector<size_t> sizes;
    const size_t cap = static_cast<size_t>(capacity);
    size_t left = n;
    while (left > 0) {
      const size_t take = std::min(left, cap);
      sizes.push_back(take);
      left -= take;
    }
    if (sizes.size() >= 2 &&
        sizes.back() < static_cast<size_t>(min_fill)) {
      // Steal from the penultimate chunk to satisfy the fill invariant.
      const size_t need = static_cast<size_t>(min_fill) - sizes.back();
      sizes[sizes.size() - 2] -= need;
      sizes.back() += need;
    }
    return sizes;
  }

  static std::vector<std::unique_ptr<Node>> PackLeaves(
      std::vector<Entry> entries, int32_t capacity, int32_t min_fill) {
    StrSortRange(entries, 0, entries.size(), 0, capacity,
                 [](const Entry& e) -> const BoxT& { return e.box; });
    std::vector<std::unique_ptr<Node>> nodes;
    size_t pos = 0;
    for (size_t count : ChunkSizes(entries.size(), capacity, min_fill)) {
      auto node = std::make_unique<Node>(/*is_leaf=*/true);
      node->entries.assign(entries.begin() + static_cast<int64_t>(pos),
                           entries.begin() + static_cast<int64_t>(pos + count));
      node->RecomputeMbr();
      nodes.push_back(std::move(node));
      pos += count;
    }
    return nodes;
  }

  static std::vector<std::unique_ptr<Node>> PackInternal(
      std::vector<std::unique_ptr<Node>> children, int32_t capacity,
      int32_t min_fill) {
    StrSortRange(children, 0, children.size(), 0, capacity,
                 [](const std::unique_ptr<Node>& n) -> const BoxT& {
                   return n->mbr;
                 });
    std::vector<std::unique_ptr<Node>> nodes;
    size_t pos = 0;
    for (size_t count : ChunkSizes(children.size(), capacity, min_fill)) {
      auto node = std::make_unique<Node>(/*is_leaf=*/false);
      for (size_t i = 0; i < count; ++i) {
        node->children.push_back(std::move(children[pos + i]));
      }
      node->RecomputeMbr();
      nodes.push_back(std::move(node));
      pos += count;
    }
    return nodes;
  }

  // --- Insertion -------------------------------------------------------

  // Inserts `entry` at `target_level` (0 = leaf). Levels are counted from
  // the leaves up, so subtree reinsertion can target the right depth.
  void InsertEntry(const Entry& entry, int32_t target_level) {
    std::vector<Node*> path;
    Node* node = ChoosePath(entry.box, target_level, &path);
    node->entries.push_back(entry);
    node->mbr.Extend(entry.box);
    HandleOverflowUp(path);
  }

  // Walks from the root to a node at `target_level`, recording the path.
  // For target_level 0 this is ChooseLeaf/ChooseSubtree.
  Node* ChoosePath(const BoxT& box, int32_t target_level,
                   std::vector<Node*>* path) {
    Node* node = root_.get();
    int32_t level = height_ - 1;  // root level (leaves are level 0)
    path->push_back(node);
    while (level > target_level) {
      Node* next = ChooseChild(node, box, level);
      node = next;
      --level;
      path->push_back(node);
    }
    return node;
  }

  Node* ChooseChild(Node* node, const BoxT& box, int32_t node_level) {
    MARS_CHECK(!node->is_leaf);
    // R*-tree rule: when children are leaves, minimize overlap enlargement;
    // otherwise minimize volume enlargement. Ties: volume enlargement, then
    // volume.
    const bool children_are_leaves = (node_level == 1);
    double best_primary = std::numeric_limits<double>::max();
    double best_secondary = std::numeric_limits<double>::max();
    double best_tertiary = std::numeric_limits<double>::max();
    Node* best = nullptr;
    for (const auto& child : node->children) {
      const double enlargement = child->mbr.Enlargement(box);
      const double volume = child->mbr.Volume();
      double primary, secondary, tertiary;
      if (options_.split_policy == SplitPolicy::kRStar &&
          children_are_leaves) {
        const BoxT grown = child->mbr.Union(box);
        double overlap_delta = 0.0;
        for (const auto& other : node->children) {
          if (other.get() == child.get()) continue;
          overlap_delta += grown.OverlapVolume(other->mbr) -
                           child->mbr.OverlapVolume(other->mbr);
        }
        primary = overlap_delta;
        secondary = enlargement;
        tertiary = volume;
      } else {
        primary = enlargement;
        secondary = volume;
        tertiary = 0.0;
      }
      if (primary < best_primary ||
          (primary == best_primary && secondary < best_secondary) ||
          (primary == best_primary && secondary == best_secondary &&
           tertiary < best_tertiary)) {
        best_primary = primary;
        best_secondary = secondary;
        best_tertiary = tertiary;
        best = child.get();
      }
    }
    MARS_CHECK(best != nullptr);
    return best;
  }

  // Propagates MBR updates and resolves overflows along `path` (root
  // first, inserted node last).
  void HandleOverflowUp(std::vector<Node*>& path) {
    for (int32_t i = static_cast<int32_t>(path.size()) - 1; i >= 0; --i) {
      Node* node = path[i];
      node->RecomputeMbr();
      if (node->count() <= options_.node_capacity) continue;
      const int32_t level = static_cast<int32_t>(path.size()) - 1 - i;
      Node* parent = (i == 0) ? nullptr : path[i - 1];
      if (options_.split_policy == SplitPolicy::kRStar &&
          options_.forced_reinsert && parent != nullptr &&
          level < static_cast<int32_t>(reinserted_levels_.size()) &&
          !reinserted_levels_[level]) {
        reinserted_levels_[level] = true;
        ForcedReinsert(node, parent, level);
        // Reinsertion may have split other parts of the tree; recompute the
        // ancestors' boxes and stop (reinsertion handled the overflow).
        for (int32_t k = i - 1; k >= 0; --k) path[k]->RecomputeMbr();
        return;
      }
      SplitNode(node, parent);
    }
  }

  // Removes the kReinsertFraction entries farthest from the node's center
  // and re-inserts them from the top.
  void ForcedReinsert(Node* node, Node* parent, int32_t level) {
    const int32_t remove_count = std::max<int32_t>(
        1, static_cast<int32_t>(node->count() * kReinsertFraction));
    const auto center = node->mbr.Center();
    auto center_distance = [&center](const BoxT& b) {
      const auto c = b.Center();
      double d = 0.0;
      for (size_t k = 0; k < Dim; ++k) {
        const double diff = c[k] - center[k];
        d += diff * diff;
      }
      return d;
    };

    if (node->is_leaf) {
      std::sort(node->entries.begin(), node->entries.end(),
                [&](const Entry& a, const Entry& b) {
                  return center_distance(a.box) > center_distance(b.box);
                });
      std::vector<Entry> evicted(node->entries.begin(),
                                 node->entries.begin() + remove_count);
      node->entries.erase(node->entries.begin(),
                          node->entries.begin() + remove_count);
      node->RecomputeMbr();
      parent->RecomputeMbr();
      for (const Entry& e : evicted) {
        InsertEntry(e, level);
      }
    } else {
      std::sort(node->children.begin(), node->children.end(),
                [&](const std::unique_ptr<Node>& a,
                    const std::unique_ptr<Node>& b) {
                  return center_distance(a->mbr) > center_distance(b->mbr);
                });
      std::vector<std::unique_ptr<Node>> evicted;
      for (int32_t k = 0; k < remove_count; ++k) {
        evicted.push_back(std::move(node->children[k]));
      }
      node->children.erase(node->children.begin(),
                           node->children.begin() + remove_count);
      node->RecomputeMbr();
      parent->RecomputeMbr();
      // Evicted children live one level below the overflowing node.
      for (std::unique_ptr<Node>& child : evicted) {
        InsertSubtree(std::move(child), level - 1);
      }
    }
  }

  // --- Splitting -------------------------------------------------------

  // Splits `node` in place; the new sibling is attached to `parent` (or a
  // new root is grown).
  void SplitNode(Node* node, Node* parent) {
    std::unique_ptr<Node> sibling =
        options_.split_policy == SplitPolicy::kRStar ? RStarSplit(node)
                                                     : QuadraticSplit(node);
    node->RecomputeMbr();
    sibling->RecomputeMbr();
    if (parent == nullptr) {
      auto new_root = std::make_unique<Node>(/*is_leaf=*/false);
      auto old_root = std::move(root_);
      new_root->children.push_back(std::move(old_root));
      new_root->children.push_back(std::move(sibling));
      new_root->RecomputeMbr();
      root_ = std::move(new_root);
      ++height_;
      reinserted_levels_.push_back(false);
    } else {
      parent->children.push_back(std::move(sibling));
      parent->RecomputeMbr();
    }
  }

  // Collects the boxes of a node's members (entries or children).
  std::vector<BoxT> MemberBoxes(const Node* node) const {
    std::vector<BoxT> boxes;
    boxes.reserve(node->count());
    if (node->is_leaf) {
      for (const Entry& e : node->entries) boxes.push_back(e.box);
    } else {
      for (const auto& c : node->children) boxes.push_back(c->mbr);
    }
    return boxes;
  }

  // Reorders the node's members by `order` (a permutation).
  void Permute(Node* node, const std::vector<int32_t>& order) {
    if (node->is_leaf) {
      std::vector<Entry> tmp;
      tmp.reserve(order.size());
      for (int32_t i : order) tmp.push_back(node->entries[i]);
      node->entries = std::move(tmp);
    } else {
      std::vector<std::unique_ptr<Node>> tmp;
      tmp.reserve(order.size());
      for (int32_t i : order) tmp.push_back(std::move(node->children[i]));
      node->children = std::move(tmp);
    }
  }

  // Moves members [split_at, end) of `node` into a new sibling.
  std::unique_ptr<Node> SplitOffTail(Node* node, int32_t split_at) {
    auto sibling = std::make_unique<Node>(node->is_leaf);
    if (node->is_leaf) {
      sibling->entries.assign(
          std::make_move_iterator(node->entries.begin() + split_at),
          std::make_move_iterator(node->entries.end()));
      node->entries.resize(split_at);
    } else {
      for (size_t i = split_at; i < node->children.size(); ++i) {
        sibling->children.push_back(std::move(node->children[i]));
      }
      node->children.resize(split_at);
    }
    return sibling;
  }

  // R*-tree split: choose the axis with minimum total margin over all
  // min-fill-respecting distributions (considering both lo and hi
  // sortings), then the distribution with minimum overlap (ties: volume).
  std::unique_ptr<Node> RStarSplit(Node* node) {
    const std::vector<BoxT> boxes = MemberBoxes(node);
    const int32_t total = static_cast<int32_t>(boxes.size());
    const int32_t min_fill = min_fill_;

    double best_axis_margin = std::numeric_limits<double>::max();
    size_t best_axis = 0;
    bool best_axis_use_hi = false;

    for (size_t axis = 0; axis < Dim; ++axis) {
      for (const bool use_hi : {false, true}) {
        std::vector<int32_t> order(total);
        std::iota(order.begin(), order.end(), 0);
        SortOrder(boxes, axis, use_hi, &order);
        double margin_sum = 0.0;
        for (int32_t k = min_fill; k <= total - min_fill; ++k) {
          BoxT left, right;
          for (int32_t i = 0; i < k; ++i) left.Extend(boxes[order[i]]);
          for (int32_t i = k; i < total; ++i) right.Extend(boxes[order[i]]);
          margin_sum += left.Margin() + right.Margin();
        }
        if (margin_sum < best_axis_margin) {
          best_axis_margin = margin_sum;
          best_axis = axis;
          best_axis_use_hi = use_hi;
        }
      }
    }

    std::vector<int32_t> order(total);
    std::iota(order.begin(), order.end(), 0);
    SortOrder(boxes, best_axis, best_axis_use_hi, &order);

    double best_overlap = std::numeric_limits<double>::max();
    double best_volume = std::numeric_limits<double>::max();
    int32_t best_k = min_fill;
    for (int32_t k = min_fill; k <= total - min_fill; ++k) {
      BoxT left, right;
      for (int32_t i = 0; i < k; ++i) left.Extend(boxes[order[i]]);
      for (int32_t i = k; i < total; ++i) right.Extend(boxes[order[i]]);
      const double overlap = left.OverlapVolume(right);
      const double volume = left.Volume() + right.Volume();
      if (overlap < best_overlap ||
          (overlap == best_overlap && volume < best_volume)) {
        best_overlap = overlap;
        best_volume = volume;
        best_k = k;
      }
    }

    Permute(node, order);
    return SplitOffTail(node, best_k);
  }

  static void SortOrder(const std::vector<BoxT>& boxes, size_t axis,
                        bool use_hi, std::vector<int32_t>* order) {
    std::sort(order->begin(), order->end(), [&](int32_t a, int32_t b) {
      const double ka = use_hi ? boxes[a].hi(axis) : boxes[a].lo(axis);
      const double kb = use_hi ? boxes[b].hi(axis) : boxes[b].lo(axis);
      if (ka != kb) return ka < kb;
      // Secondary key keeps the sort total.
      return use_hi ? boxes[a].lo(axis) < boxes[b].lo(axis)
                    : boxes[a].hi(axis) < boxes[b].hi(axis);
    });
  }

  // Guttman quadratic split: pick the pair of seeds wasting the most area,
  // then greedily assign by strongest preference.
  std::unique_ptr<Node> QuadraticSplit(Node* node) {
    const std::vector<BoxT> boxes = MemberBoxes(node);
    const int32_t total = static_cast<int32_t>(boxes.size());

    int32_t seed_a = 0, seed_b = 1;
    double worst_waste = -std::numeric_limits<double>::max();
    for (int32_t i = 0; i < total; ++i) {
      for (int32_t j = i + 1; j < total; ++j) {
        const double waste = boxes[i].Union(boxes[j]).Volume() -
                             boxes[i].Volume() - boxes[j].Volume();
        if (waste > worst_waste) {
          worst_waste = waste;
          seed_a = i;
          seed_b = j;
        }
      }
    }

    std::vector<int32_t> group_a = {seed_a};
    std::vector<int32_t> group_b = {seed_b};
    BoxT mbr_a = boxes[seed_a];
    BoxT mbr_b = boxes[seed_b];
    std::vector<bool> assigned(total, false);
    assigned[seed_a] = assigned[seed_b] = true;
    int32_t remaining = total - 2;

    while (remaining > 0) {
      // Force-assign when one group must take all the rest to reach
      // min_fill.
      if (static_cast<int32_t>(group_a.size()) + remaining <= min_fill_) {
        for (int32_t i = 0; i < total; ++i) {
          if (!assigned[i]) {
            group_a.push_back(i);
            mbr_a.Extend(boxes[i]);
            assigned[i] = true;
          }
        }
        remaining = 0;
        break;
      }
      if (static_cast<int32_t>(group_b.size()) + remaining <= min_fill_) {
        for (int32_t i = 0; i < total; ++i) {
          if (!assigned[i]) {
            group_b.push_back(i);
            mbr_b.Extend(boxes[i]);
            assigned[i] = true;
          }
        }
        remaining = 0;
        break;
      }
      // PickNext: the unassigned box with the largest preference
      // difference.
      int32_t pick = -1;
      double max_diff = -1.0;
      double pick_da = 0.0, pick_db = 0.0;
      for (int32_t i = 0; i < total; ++i) {
        if (assigned[i]) continue;
        const double da = mbr_a.Enlargement(boxes[i]);
        const double db = mbr_b.Enlargement(boxes[i]);
        const double diff = std::abs(da - db);
        if (diff > max_diff) {
          max_diff = diff;
          pick = i;
          pick_da = da;
          pick_db = db;
        }
      }
      MARS_CHECK_GE(pick, 0);
      const bool to_a =
          pick_da < pick_db ||
          (pick_da == pick_db && (mbr_a.Volume() < mbr_b.Volume() ||
                                  (mbr_a.Volume() == mbr_b.Volume() &&
                                   group_a.size() <= group_b.size())));
      if (to_a) {
        group_a.push_back(pick);
        mbr_a.Extend(boxes[pick]);
      } else {
        group_b.push_back(pick);
        mbr_b.Extend(boxes[pick]);
      }
      assigned[pick] = true;
      --remaining;
    }

    std::vector<int32_t> order = group_a;
    order.insert(order.end(), group_b.begin(), group_b.end());
    Permute(node, order);
    return SplitOffTail(node, static_cast<int32_t>(group_a.size()));
  }

  // --- Subtree reinsertion (for forced reinsert) -------------------------

  // Inserts a whole subtree so that its leaves end up at leaf level.
  void InsertSubtree(std::unique_ptr<Node> subtree, int32_t subtree_level) {
    std::vector<Node*> path;
    Node* target = ChoosePath(subtree->mbr, subtree_level + 1, &path);
    MARS_CHECK(!target->is_leaf);
    target->children.push_back(std::move(subtree));
    HandleOverflowUp(path);
  }

  // --- Query -----------------------------------------------------------

  void QueryRec(const Node* node, const BoxT& window,
                std::vector<int64_t>* out, int64_t* accesses) const {
    ++*accesses;
    if (node->is_leaf) {
      for (const Entry& e : node->entries) {
        if (e.box.Intersects(window)) out->push_back(e.value);
      }
      return;
    }
    for (const auto& child : node->children) {
      if (child->mbr.Intersects(window)) {
        QueryRec(child.get(), window, out, accesses);
      }
    }
  }

  // --- Invariants ------------------------------------------------------

  common::Status CheckNode(const Node* node, bool is_root, int32_t depth,
                           int64_t* counted) const {
    const int32_t count = node->count();
    if (count > options_.node_capacity) {
      return common::InternalError("node exceeds capacity");
    }
    if (!is_root && count < min_fill_) {
      return common::InternalError("non-root node underfull: " +
                                   std::to_string(count));
    }
    if (is_root && !node->is_leaf && count < 2) {
      return common::InternalError("internal root has < 2 children");
    }
    BoxT recomputed;
    if (node->is_leaf) {
      if (depth != height_ - 1) {
        return common::InternalError("leaf at wrong depth");
      }
      *counted += node->entries.size();
      for (const Entry& e : node->entries) recomputed.Extend(e.box);
    } else {
      for (const auto& child : node->children) {
        recomputed.Extend(child->mbr);
        MARS_RETURN_IF_ERROR(
            CheckNode(child.get(), /*is_root=*/false, depth + 1, counted));
      }
    }
    if (count > 0 && !(recomputed == node->mbr)) {
      return common::InternalError("stale node MBR");
    }
    return common::OkStatus();
  }

  RTreeOptions options_;
  int32_t min_fill_ = 2;
  std::unique_ptr<Node> root_;
  int64_t size_ = 0;
  int32_t height_ = 1;
  // Per-insertion flags: has forced reinsertion already run at level i?
  std::vector<bool> reinserted_levels_;
  mutable RTreeStats stats_;
};

using RTree2 = RTree<2>;
using RTree3 = RTree<3>;
using RTree4 = RTree<4>;

}  // namespace mars::index

#endif  // MARS_INDEX_RTREE_H_
