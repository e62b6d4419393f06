#include "exact/quadtree_index.h"

#include <cassert>

namespace latest::exact {

namespace {

/// Evicted leaf prefixes compact once the dead prefix is this long and at
/// least half the buffer (mirrors GridIndex).
constexpr uint32_t kMinHeadForCompaction = 32;

}  // namespace

QuadTreeIndex::QuadTreeIndex(const stream::WindowStore* store,
                             const geo::Rect& bounds, uint32_t leaf_capacity,
                             uint32_t max_depth)
    : store_(store),
      root_(std::make_unique<Node>()),
      leaf_capacity_(leaf_capacity),
      max_depth_(max_depth) {
  assert(bounds.IsValid());
  assert(leaf_capacity > 0);
  root_->cell = bounds;
}

int QuadTreeIndex::QuadrantOf(const Node& node, const geo::Point& p) const {
  const geo::Point c = node.cell.Center();
  const int east = p.x >= c.x ? 1 : 0;
  const int north = p.y >= c.y ? 2 : 0;
  return east + north;
}

void QuadTreeIndex::Split(Node* node,
                          const stream::WindowStore::Reader& reader) {
  const geo::Point c = node->cell.Center();
  const geo::Rect& b = node->cell;
  const geo::Rect quads[4] = {
      {b.min_x, b.min_y, c.x, c.y},  // SW
      {c.x, b.min_y, b.max_x, c.y},  // SE
      {b.min_x, c.y, c.x, b.max_y},  // NW
      {c.x, c.y, b.max_x, b.max_y},  // NE
  };
  for (int i = 0; i < 4; ++i) {
    node->children[i] = std::make_unique<Node>();
    node->children[i]->cell = quads[i];
    node->children[i]->depth = node->depth + 1;
  }
  num_nodes_ += 4;
  node->is_leaf = false;
  // Redistribute live rows, preserving arrival (timestamp) order.
  for (size_t i = node->head; i < node->rows.size(); ++i) {
    const Row row = node->rows[i];
    node->children[QuadrantOf(*node, reader.loc(row))]->rows.push_back(row);
  }
  node->rows.clear();
  node->rows.shrink_to_fit();
  node->head = 0;
}

void QuadTreeIndex::InsertInto(Node* node, Row row, const geo::Point& loc) {
  while (!node->is_leaf) {
    node = node->children[QuadrantOf(*node, loc)].get();
  }
  node->rows.push_back(row);
  if (node->live() > leaf_capacity_ && node->depth < max_depth_) {
    const stream::WindowStore::Reader reader(*store_);
    Split(node, reader);
  }
}

void QuadTreeIndex::Insert(Row row) {
  const stream::WindowStore::Reader reader(*store_);
  Insert(row, reader.loc(row));
}

void QuadTreeIndex::Insert(Row row, const geo::Point& loc) {
  InsertInto(root_.get(), row, loc);
  ++size_;
}

void QuadTreeIndex::EvictLeaf(Node* node, stream::Timestamp cutoff,
                              const stream::WindowStore::Reader& reader) {
  const Row first_live = store_->first_live_row();
  uint32_t head = node->head;
  while (head < node->rows.size()) {
    const Row row = node->rows[head];
    // Rows of dropped store slices are discarded without dereferencing.
    if (row >= first_live && reader.timestamp(row) >= cutoff) break;
    ++head;
    --size_;
  }
  node->head = head;
  if (head >= kMinHeadForCompaction && head >= node->rows.size() / 2) {
    node->rows.erase(node->rows.begin(), node->rows.begin() + head);
    node->head = 0;
  }
}

uint64_t QuadTreeIndex::CountNode(Node* node, const stream::Query& q,
                                  stream::Timestamp cutoff,
                                  const stream::WindowStore::Reader& reader) {
  if (q.HasRange() && !q.range->Intersects(node->cell)) return 0;
  if (node->is_leaf) {
    EvictLeaf(node, cutoff, reader);
    uint64_t count = 0;
    RowScanner scan(reader);
    const size_t n = node->rows.size();
    for (size_t i = node->head; i < n; ++i) {
      if (scan.MatchesQuery(node->rows[i], q)) ++count;
    }
    return count;
  }
  uint64_t count = 0;
  for (auto& child : node->children) {
    count += CountNode(child.get(), q, cutoff, reader);
  }
  return count;
}

uint64_t QuadTreeIndex::CountMatches(const stream::Query& q,
                                     stream::Timestamp cutoff) {
  const stream::WindowStore::Reader reader(*store_);
  return CountNode(root_.get(), q, cutoff, reader);
}

uint64_t QuadTreeIndex::EvictNode(Node* node, stream::Timestamp cutoff,
                                  const stream::WindowStore::Reader& reader) {
  if (node->is_leaf) {
    EvictLeaf(node, cutoff, reader);
    return node->live();
  }
  uint64_t live = 0;
  for (auto& child : node->children) {
    live += EvictNode(child.get(), cutoff, reader);
  }
  if (live == 0) {
    for (auto& child : node->children) child.reset();
    node->is_leaf = true;
    num_nodes_ -= 4;
  }
  return live;
}

void QuadTreeIndex::EvictBefore(stream::Timestamp cutoff) {
  const stream::WindowStore::Reader reader(*store_);
  EvictNode(root_.get(), cutoff, reader);
}

}  // namespace latest::exact
