// Per-document structural index: for each interned element name the
// preorder-sorted list of its occurrences, mirrored for attribute names,
// plus the list of all text nodes.
//
// Combined with the [pre, pre+size) structural numbering of node.h this
// turns a descendant step into two binary searches on the name's occurrence
// list: the slice of occurrences inside the context's subtree extent IS the
// step result, already in document order and duplicate-free — the same
// "resolve a path step against the physical store instead of walking the
// subtree" shortcut the paper's Natix testbed provides its unnested plans.
//
// Indexes are owned and invalidated by the Store (store.h) and built lazily
// on first indexed path evaluation: one O(n) pass counts the occurrences per
// name id, a second fills lists allocated at exactly those sizes, in
// ascending NodeId order, which already is preorder.
#ifndef NALQ_XML_INDEX_H_
#define NALQ_XML_INDEX_H_

#include <span>
#include <vector>

#include "xml/node.h"

namespace nalq::xml {

class DocumentIndex {
 public:
  /// Builds the index with two passes over `doc`'s node vector.
  explicit DocumentIndex(const Document& doc);

  /// Preorder-sorted ids of the elements named `name_id` (empty span if the
  /// name never occurs; `UINT32_MAX` — an un-interned name — is always
  /// empty).
  std::span<const NodeId> Elements(uint32_t name_id) const;
  /// Preorder-sorted ids of every element (wildcard steps).
  std::span<const NodeId> AllElements() const { return all_elements_; }
  /// Preorder-sorted ids of the attributes named `name_id`.
  std::span<const NodeId> Attributes(uint32_t name_id) const;
  /// Preorder-sorted ids of every text node.
  std::span<const NodeId> TextNodes() const { return text_nodes_; }

 private:
  // Occurrence lists indexed by name id (ids are dense below
  // doc.names().size()).
  std::vector<std::vector<NodeId>> elements_;
  std::vector<std::vector<NodeId>> attributes_;
  std::vector<NodeId> all_elements_;
  std::vector<NodeId> text_nodes_;
};

}  // namespace nalq::xml

#endif  // NALQ_XML_INDEX_H_
