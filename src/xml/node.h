// Arena-allocated XML document trees with document-order node ids.
//
// This is the storage substrate standing in for the Natix engine used in the
// paper. Nodes live in a flat vector; a NodeId is an index into it. Documents
// must be built depth-first (the parser and the data generator both do), so
// NodeId order coincides with document order — the property the paper's
// order-preserving operators rely on ("the Υ operator generates its output in
// document order").
//
// Depth-first construction also gives every node a structural numbering for
// free: its NodeId is its preorder rank `pre`, and its whole subtree
// (attributes included) occupies the contiguous id interval
// [pre, subtree_end(pre)). The extents are maintained incrementally while
// the tree is built, so ancestor tests and descendant-range lookups are O(1)
// integer comparisons — the basis of the per-document structural index
// (xml/index.h) and the index-backed XPath evaluation (xml/xpath.h).
#ifndef NALQ_XML_NODE_H_
#define NALQ_XML_NODE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "xml/arena.h"

namespace nalq::xml {

using NodeId = uint32_t;
inline constexpr NodeId kNoNode = UINT32_MAX;

enum class NodeKind : uint8_t { kDocument, kElement, kText, kAttribute };

/// POD node record. Attribute nodes hang off `first_attr` of their element
/// and are chained through `next_sibling`; they do not appear in the child
/// chain.
struct Node {
  NodeKind kind = NodeKind::kElement;
  uint32_t name = 0;   ///< interned tag/attribute name; 0 for text/document
  uint32_t text = 0;   ///< index into Document texts for text/attribute nodes
  NodeId parent = kNoNode;
  NodeId first_child = kNoNode;
  NodeId last_child = kNoNode;
  NodeId next_sibling = kNoNode;
  NodeId first_attr = kNoNode;
  /// Exclusive end of the subtree extent: the structural interval
  /// [id, subtree_end) holds exactly this node's subtree — itself, its
  /// attributes and all descendants. Valid at all times during depth-first
  /// construction (see Document::NewNode).
  NodeId subtree_end = kNoNode;
};

/// Parses untyped text as a number if it looks like one: XML whitespace
/// trimmed, the rest exactly std::from_chars' decimal syntax. The engine's
/// one number parser — a node's cached Atom::number and nal::TryParseNumber
/// (untyped XML text against numeric literals, e.g. @year > 1993) are both
/// this function, so a borrowed and an owned "1999" convert alike.
std::optional<double> TryParseNumber(std::string_view s);

/// A node's atomized value: its XPath string value, the hash of those bytes
/// and their numeric parse, computed once per node (Document::AtomOf). The
/// hash is std::hash<std::string_view>, the function nal::Value::Hash uses
/// for owned strings, so equal strings hash alike in either form.
///
/// `bytes` views the document's own text for text and attribute nodes and
/// for elements with exactly one text descendant; an element (or the
/// document node) with two or more owns one concatenation held by the
/// document; one with none views the empty string. An Atom lives as long as
/// its document (xml/store.h, borrowed atoms).
struct Atom {
  std::string_view bytes;
  size_t hash = 0;
  std::optional<double> number;  ///< TryParseNumber(bytes)
};

/// One XML document. Node 0 is the document node.
class Document {
 public:
  explicit Document(std::string name);

  // ---- construction (depth-first order required) -----------------------
  /// Appends an element as the last child of `parent`. Returns its id.
  NodeId AddElement(NodeId parent, std::string_view tag);
  /// Appends a text node as the last child of `parent`.
  NodeId AddText(NodeId parent, std::string_view text);
  /// Attaches an attribute to `element`.
  NodeId AddAttribute(NodeId element, std::string_view name,
                      std::string_view value);

  // ---- accessors --------------------------------------------------------
  const std::string& name() const { return name_; }
  NodeId root() const { return 0; }
  size_t node_count() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  NodeKind kind(NodeId id) const { return nodes_[id].kind; }
  NodeId parent(NodeId id) const { return nodes_[id].parent; }
  NodeId first_child(NodeId id) const { return nodes_[id].first_child; }
  NodeId next_sibling(NodeId id) const { return nodes_[id].next_sibling; }
  NodeId first_attr(NodeId id) const { return nodes_[id].first_attr; }

  // ---- structural numbering ---------------------------------------------
  /// Preorder rank of `id` (depth-first construction makes this the id
  /// itself; exposed under its paper name for readability at call sites).
  NodeId pre(NodeId id) const { return id; }
  /// Exclusive end of `id`'s subtree extent [pre, pre+size).
  NodeId subtree_end(NodeId id) const { return nodes_[id].subtree_end; }
  /// Number of nodes in `id`'s subtree, itself and attributes included.
  uint32_t subtree_size(NodeId id) const { return nodes_[id].subtree_end - id; }
  /// True iff `descendant` lies strictly inside `ancestor`'s subtree
  /// (attributes count as descendants of their element).
  bool IsDescendant(NodeId ancestor, NodeId descendant) const {
    return descendant > ancestor && descendant < nodes_[ancestor].subtree_end;
  }

  /// Interned id of the element/attribute name (0 for text/document nodes).
  uint32_t name_id(NodeId id) const { return nodes_[id].name; }
  std::string_view node_name(NodeId id) const {
    return names_.Get(nodes_[id].name);
  }
  /// Raw text content of a text or attribute node.
  std::string_view raw_text(NodeId id) const { return texts_[nodes_[id].text]; }

  /// XPath string value: concatenation of all descendant text (for elements),
  /// the text itself (text/attribute nodes), or the whole document's text.
  /// A fresh copy, walked along the child chains: the reference the tests
  /// check AtomOf's extent scan against.
  std::string StringValue(NodeId id) const;

  /// The node's atom (see Atom): filled on first use, then shared by every
  /// Value atomized from the node. Safe under concurrent readers (the
  /// parallel executor's workers share one document store): a hit is one
  /// acquire-load of the node's table slot with no lock — this is the
  /// Atomize hot path, and a per-document mutex here convoys badly under
  /// contention. A cold fill computes outside the table's mutex, then
  /// double-checks and publishes under it, so the first publisher wins and
  /// every reader sees one Atom per node. Requires a table sized by
  /// PrepareSharedReads, which the Store does for every document it holds.
  const Atom& AtomOf(NodeId id) const {
    const std::vector<std::atomic<const Atom*>>& slots = atoms_->slots;
    assert(id < slots.size() && "atom table not sized (PrepareSharedReads)");
    const Atom* atom = slots[id].load(std::memory_order_acquire);
    return atom != nullptr ? *atom : FillAtom(id);
  }

  /// Sizes the atom table to node_count(). The Store calls it once per
  /// document, before publication (AddDocument, fault-in); a stored
  /// document never grows afterwards.
  void PrepareSharedReads() const;

  /// Number of element nodes named `tag` in the whole document.
  size_t CountElements(std::string_view tag) const;

  const StringInterner& names() const { return names_; }
  StringInterner& names() { return names_; }

  /// Attached DOCTYPE internal subset, if the parser saw one.
  const std::string& dtd_text() const { return dtd_text_; }
  void set_dtd_text(std::string dtd) { dtd_text_ = std::move(dtd); }

 private:
  NodeId NewNode(NodeKind kind, NodeId parent);
  void AppendChild(NodeId parent, NodeId child);
  /// Cold path of AtomOf.
  const Atom& FillAtom(NodeId id) const;

  /// The atom table: one slot per node, 8 bytes each until filled.
  /// Heap-allocated so Document stays movable (the mutex and atomics are
  /// not); eagerly created in the constructor, so concurrent readers never
  /// race on the pointer itself. A slot goes null → published exactly once;
  /// `entries` and `owned` are deques, so a published Atom and the
  /// concatenation it views never move.
  struct AtomTable {
    std::mutex mu;
    std::vector<std::atomic<const Atom*>> slots;
    std::deque<Atom> entries;
    std::deque<std::string> owned;
  };

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::string> texts_;
  StringInterner names_;
  std::string dtd_text_;
  std::unique_ptr<AtomTable> atoms_;
};

using DocId = uint32_t;

/// Handle to a node in some document of a Store. Ordering = document order
/// (within one document) / document id order (across documents).
struct NodeRef {
  DocId doc = 0;
  NodeId id = kNoNode;

  friend bool operator==(const NodeRef&, const NodeRef&) = default;
  friend auto operator<=>(const NodeRef&, const NodeRef&) = default;
};

struct NodeRefHash {
  size_t operator()(const NodeRef& r) const noexcept {
    return (static_cast<size_t>(r.doc) << 32) ^ r.id;
  }
};

}  // namespace nalq::xml

#endif  // NALQ_XML_NODE_H_
