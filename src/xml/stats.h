// Per-document cardinality statistics for the cost-based optimizer
// (src/opt/): how many elements/attributes each name has, how parent and
// child names fan out, and how many distinct values the leaf elements and
// attributes carry.
//
// Everything is derived in one pass from the node vector plus the
// occurrence-list index (index.h) — the structural numbering makes the
// ancestor walk a stack of [pre, pre+size) extents. Statistics are owned,
// cached and invalidated by the Store exactly like the index (store.h):
// built lazily on first use, dropped when the document is replaced. A
// persisted document's statistics are not rebuilt: they are decoded from
// the store's manifest (src/storage/), without paging the document in.
//
// The counts are exact (a stored document never changes after the build);
// the optimizer treats them as estimates anyway.
#ifndef NALQ_XML_STATS_H_
#define NALQ_XML_STATS_H_

#include <cstdint>
#include <unordered_map>

#include "xml/index.h"
#include "xml/node.h"

namespace nalq::storage {
class StoreCodec;
}

namespace nalq::xml {

class DocumentStats {
 public:
  /// Builds the statistics with one pass over `doc`'s node vector (the
  /// index supplies the per-name occurrence lists for the value scans).
  DocumentStats(const Document& doc, const DocumentIndex& index);

  // ---- totals ------------------------------------------------------------
  uint64_t element_count() const { return element_count_; }
  uint64_t attribute_count() const { return attribute_count_; }
  uint64_t text_node_count() const { return text_node_count_; }

  // ---- per-name occurrence counts ---------------------------------------
  /// Number of elements named `name_id` in the whole document — the exact
  /// cardinality of the //name step from the document root.
  uint64_t ElementCount(uint32_t name_id) const;
  uint64_t AttributeCount(uint32_t name_id) const;

  // ---- fan-out -----------------------------------------------------------
  /// Number of parent→child element edges (parent named `parent_name`,
  /// child named `child_name`) — the exact cardinality of the child step
  /// `child_name` summed over every `parent_name` context.
  uint64_t ChildEdges(uint32_t parent_name, uint32_t child_name) const;
  /// Number of `parent_name` elements with at least one `child_name` child
  /// (selectivity of "has a `child_name`" predicates).
  uint64_t ParentsWithChild(uint32_t parent_name, uint32_t child_name) const;
  /// Σ over elements named `anc_name` of the `desc_name` elements in their
  /// subtree — the exact cardinality of the descendant step `//desc_name`
  /// summed over every `anc_name` context (nested same-name ancestors count
  /// their descendants once per enclosing context, mirroring evaluation).
  uint64_t DescendantEdges(uint32_t anc_name, uint32_t desc_name) const;
  /// Number of `attr_name` attributes attached to elements named
  /// `elem_name` (cardinality of the @attr step).
  uint64_t AttrEdges(uint32_t elem_name, uint32_t attr_name) const;

  // ---- distinct values ---------------------------------------------------
  /// Distinct string values of the elements named `name_id`. Exact for leaf
  /// elements (no element children — the ones equality predicates compare);
  /// for non-leaf elements the value scan is skipped and every occurrence
  /// is assumed distinct.
  uint64_t DistinctElementValues(uint32_t name_id) const;
  /// Distinct values of the attributes named `name_id`.
  uint64_t DistinctAttrValues(uint32_t name_id) const;

  /// The document's node count at build time; the persistent store checks
  /// decoded statistics against their manifest entry's node count with it.
  size_t built_node_count() const { return built_node_count_; }

 private:
  /// Persistence codec (src/storage/): serializes and reconstructs the
  /// count maps directly, bypassing the build pass. The deserializing path
  /// is the only user of the default constructor.
  friend class nalq::storage::StoreCodec;
  DocumentStats() = default;

  static uint64_t PairKey(uint32_t a, uint32_t b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }
  static uint64_t FindOr0(const std::unordered_map<uint64_t, uint64_t>& m,
                          uint64_t key) {
    auto it = m.find(key);
    return it == m.end() ? 0 : it->second;
  }

  uint64_t element_count_ = 0;
  uint64_t attribute_count_ = 0;
  uint64_t text_node_count_ = 0;
  std::unordered_map<uint32_t, uint64_t> elements_;
  std::unordered_map<uint32_t, uint64_t> attributes_;
  std::unordered_map<uint64_t, uint64_t> child_edges_;
  std::unordered_map<uint64_t, uint64_t> parents_with_child_;
  std::unordered_map<uint64_t, uint64_t> desc_edges_;
  std::unordered_map<uint64_t, uint64_t> attr_edges_;
  std::unordered_map<uint32_t, uint64_t> distinct_element_values_;
  std::unordered_map<uint32_t, uint64_t> distinct_attr_values_;
  size_t built_node_count_ = 0;
};

}  // namespace nalq::xml

#endif  // NALQ_XML_STATS_H_
