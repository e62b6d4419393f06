// Full point-region quadtree index over the window: references columnar
// store rows.
//
// The "QuadTree" full index of Table I. Leaves hold timestamp-ordered row
// references into a shared WindowStore; a leaf splits into four children
// when it exceeds `leaf_capacity` live rows (up to `max_depth`). Window
// expiry advances a per-leaf head offset lazily and empty subtrees
// collapse back into leaves.

#ifndef LATEST_EXACT_QUADTREE_INDEX_H_
#define LATEST_EXACT_QUADTREE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exact/row_scan.h"
#include "geo/rect.h"
#include "stream/query.h"
#include "stream/window_store.h"

namespace latest::exact {

/// Windowed exact quadtree index over a shared columnar store.
class QuadTreeIndex {
 public:
  using Row = stream::WindowStore::Row;

  /// store: the columnar window store rows refer into (borrowed, must
  /// outlive the index). bounds: spatial domain. leaf_capacity: split
  /// threshold. max_depth: maximum subdivision depth (leaves at max depth
  /// grow unbounded).
  QuadTreeIndex(const stream::WindowStore* store, const geo::Rect& bounds,
                uint32_t leaf_capacity, uint32_t max_depth);

  /// Indexes a store row (append order = non-decreasing timestamps).
  void Insert(Row row);

  /// Same, with the row's location supplied by the caller (the evaluator
  /// already holds it at append time), skipping the store lookup.
  void Insert(Row row, const geo::Point& loc);

  /// Exact number of window objects matching the query; objects older than
  /// `cutoff` are ignored and lazily evicted.
  uint64_t CountMatches(const stream::Query& q, stream::Timestamp cutoff);

  /// Removes all rows with timestamp < cutoff and collapses empty
  /// subtrees.
  void EvictBefore(stream::Timestamp cutoff);

  /// Number of rows currently indexed (including not-yet-evicted ones).
  uint64_t size() const { return size_; }

  /// Number of tree nodes (internal + leaves), for memory accounting.
  uint64_t num_nodes() const { return num_nodes_; }

 private:
  struct Node {
    geo::Rect cell;
    uint32_t depth = 0;
    // Leaf payload: arrival-ordered rows, [head, rows.size()) live.
    // Empty and unused for internal nodes.
    std::vector<Row> rows;
    uint32_t head = 0;
    // Children quadrants (all set for internal nodes): SW, SE, NW, NE.
    std::unique_ptr<Node> children[4];
    bool is_leaf = true;

    size_t live() const { return rows.size() - head; }
  };

  void InsertInto(Node* node, Row row, const geo::Point& loc);
  void Split(Node* node, const stream::WindowStore::Reader& reader);
  int QuadrantOf(const Node& node, const geo::Point& p) const;
  uint64_t CountNode(Node* node, const stream::Query& q,
                     stream::Timestamp cutoff,
                     const stream::WindowStore::Reader& reader);
  /// Evicts expired rows; returns the node's live row count and collapses
  /// nodes whose subtree became empty.
  uint64_t EvictNode(Node* node, stream::Timestamp cutoff,
                     const stream::WindowStore::Reader& reader);
  /// Advances a leaf's head past expired rows, decrementing size_.
  void EvictLeaf(Node* node, stream::Timestamp cutoff,
                 const stream::WindowStore::Reader& reader);

  const stream::WindowStore* store_;
  std::unique_ptr<Node> root_;
  uint32_t leaf_capacity_;
  uint32_t max_depth_;
  uint64_t size_ = 0;
  uint64_t num_nodes_ = 1;
};

}  // namespace latest::exact

#endif  // LATEST_EXACT_QUADTREE_INDEX_H_
