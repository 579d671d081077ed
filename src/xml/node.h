// XML documents as three arrays: the name table, one 16-byte record per
// node in document order, and one text arena. These bytes are also the
// persisted document (src/storage/).
//
// This is the storage substrate standing in for the Natix engine used in the
// paper. A NodeId is an index into the records. Documents must be built
// depth-first (the parser and the data generator both do), so NodeId order
// coincides with document order — the property the paper's order-preserving
// operators rely on ("the Υ operator generates its output in document
// order").
//
// Depth-first construction also gives every node a structural numbering for
// free: its NodeId is its preorder rank `pre`, and its whole subtree
// (attributes included) occupies the contiguous id interval
// [pre, subtree_end(pre)) — the pre/size encoding of Grust's XPath
// Accelerator (SIGMOD 2002). Ancestor tests and descendant ranges are O(1)
// integer comparisons (the basis of xml/index.h and xml/xpath.h), and the
// child, sibling and attribute links follow from the extents because an
// element's attributes directly follow it (see src/xml/README.md).
#ifndef NALQ_XML_NODE_H_
#define NALQ_XML_NODE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "xml/arena.h"

namespace nalq::xml {

using NodeId = uint32_t;
inline constexpr NodeId kNoNode = UINT32_MAX;

enum class NodeKind : uint8_t { kDocument, kElement, kText, kAttribute };

/// One node's record, 16 bytes: the kind and the interned name id share one
/// word, then the parent, the extent's end and the text offset. Documents
/// persist these bytes as they are (src/storage/), so the layout is part of
/// the store's format version.
struct Node {
  static constexpr int kNameBits = 30;
  static constexpr uint32_t kNameMask = (1u << kNameBits) - 1;

  /// NodeKind in the top two bits, the name id (0 for text and the document
  /// node) below.
  uint32_t kind_name = 0;
  NodeId parent = kNoNode;
  /// Exclusive end of the subtree extent: [id, subtree_end) holds exactly
  /// this node's subtree — itself, its attributes and all descendants.
  NodeId subtree_end = kNoNode;
  /// Arena offset of a text or attribute node's value (its length as a
  /// LEB128 prefix, then its bytes); 0 for elements and the document node.
  uint32_t text = 0;

  NodeKind kind() const {
    return static_cast<NodeKind>(kind_name >> kNameBits);
  }
  uint32_t name() const { return kind_name & kNameMask; }
};
static_assert(sizeof(Node) == 16);

/// The value stored at `offset` of a text arena, or nullopt unless its
/// length prefix and bytes lie inside the arena.
std::optional<std::string_view> ArenaValue(std::span<const char> arena,
                                           uint32_t offset);

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
/// `bytes` views the document's text arena for text and attribute nodes and
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
  /// Adopts decoded arrays (a persisted document's page-in). Nothing may
  /// read the document before Validate() has accepted it.
  Document(std::string name, StringInterner names, std::vector<Node> records,
           std::vector<char> arena);

  // ---- construction (depth-first order required) -----------------------
  /// Appends an element as the last child of `parent`. Returns its id.
  NodeId AddElement(NodeId parent, std::string_view tag);
  /// Appends a text node as the last child of `parent`.
  NodeId AddText(NodeId parent, std::string_view text);
  /// Attaches an attribute to `element`, before any of its children.
  NodeId AddAttribute(NodeId element, std::string_view name,
                      std::string_view value);

  /// Checks the rules every constructed document satisfies: node 0 is the
  /// document node and spans every node; parents precede their children and
  /// extents nest exactly; name ids and text offsets are in range; text and
  /// attribute nodes are leaves; attributes directly follow their element,
  /// and no element has two attributes of one name. Returns null if the
  /// document satisfies them all, otherwise the first rule broken.
  const char* Validate() const;

  // ---- accessors --------------------------------------------------------
  const std::string& name() const { return name_; }
  NodeId root() const { return 0; }
  size_t node_count() const { return nodes_.size(); }
  NodeKind kind(NodeId id) const { return nodes_[id].kind(); }
  NodeId parent(NodeId id) const { return nodes_[id].parent; }
  /// The first non-attribute id inside `id`'s extent.
  NodeId first_child(NodeId id) const {
    NodeId c = id + 1;
    while (c < subtree_end(id) && kind(c) == NodeKind::kAttribute) ++c;
    return c < subtree_end(id) ? c : kNoNode;
  }
  /// Where `id`'s extent ends, while that is inside the parent's; an
  /// attribute's siblings are only its element's other attributes.
  NodeId next_sibling(NodeId id) const {
    const NodeId p = parent(id), next = subtree_end(id);
    if (p == kNoNode || next >= subtree_end(p)) return kNoNode;
    return kind(id) == NodeKind::kAttribute &&
                   kind(next) != NodeKind::kAttribute
               ? kNoNode
               : next;
  }
  /// id+1, when that is an attribute (of `id`: attributes follow directly).
  NodeId first_attr(NodeId id) const {
    return id + 1 < subtree_end(id) && kind(id + 1) == NodeKind::kAttribute
               ? id + 1
               : kNoNode;
  }

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
  uint32_t name_id(NodeId id) const { return nodes_[id].name(); }
  std::string_view node_name(NodeId id) const {
    return names_.Get(nodes_[id].name());
  }
  /// Raw text content of a text or attribute node: a view of the arena.
  std::string_view raw_text(NodeId id) const {
    const char* p = arena_.data() + nodes_[id].text;
    const auto length = static_cast<uint8_t>(*p);  // a one-byte prefix?
    return length < 0x80 ? std::string_view(p + 1, length)
                         : *ArenaValue(arena_, nodes_[id].text);
  }

  /// XPath string value: concatenation of all descendant text (for elements),
  /// the text itself (text/attribute nodes), or the whole document's text.
  /// A fresh copy, walked along first_child/next_sibling: the reference the
  /// tests check AtomOf's extent scan against.
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

  /// Trims the records and the arena to size and sizes the atom table to
  /// node_count(). The Store calls it once per document, before publication
  /// (AddDocument, fault-in); a stored document's arrays never move
  /// afterwards, so atoms may view the arena.
  void PrepareSharedReads();

  /// Number of element nodes named `tag` in the whole document.
  size_t CountElements(std::string_view tag) const;

  const StringInterner& names() const { return names_; }
  /// The node records and the text arena (what storage persists).
  std::span<const Node> records() const { return nodes_; }
  std::span<const char> arena() const { return arena_; }

  /// Attached DOCTYPE internal subset, if the parser saw one.
  const std::string& dtd_text() const { return dtd_text_; }
  void set_dtd_text(std::string dtd) { dtd_text_ = std::move(dtd); }

 private:
  NodeId NewNode(NodeKind kind, uint32_t name, NodeId parent, uint32_t text);
  /// Appends `value` to the arena; returns its offset.
  uint32_t AppendValue(std::string_view value);
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
  StringInterner names_;
  std::vector<Node> nodes_;
  std::vector<char> arena_;
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
