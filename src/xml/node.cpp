#include "xml/node.h"

#include <charconv>

namespace nalq::xml {

std::optional<double> TryParseNumber(std::string_view s) {
  // Trim XML whitespace.
  size_t begin = s.find_first_not_of(" \t\n\r");
  if (begin == std::string_view::npos) return std::nullopt;
  size_t end = s.find_last_not_of(" \t\n\r");
  s = s.substr(begin, end - begin + 1);
  double out = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return out;
}

Document::Document(std::string name)
    : name_(std::move(name)), atoms_(std::make_unique<AtomTable>()) {
  Node doc;
  doc.kind = NodeKind::kDocument;
  doc.subtree_end = 1;
  nodes_.push_back(doc);
}

NodeId Document::NewNode(NodeKind kind, NodeId parent) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  // Depth-first construction means every append targets the rightmost open
  // node, whose extent currently ends exactly at the new id. Appending
  // anywhere else would silently corrupt the structural numbering (an
  // ancestor's extent would swallow its later siblings), so fail fast in
  // Debug builds rather than let indexed path evaluation return wrong
  // results.
  assert(parent == kNoNode || nodes_[parent].subtree_end == id);
  Node n;
  n.kind = kind;
  n.parent = parent;
  n.subtree_end = id + 1;
  nodes_.push_back(n);
  // Extending every ancestor's extent over the new node keeps all subtree
  // extents contiguous — the [pre, pre+size) structural numbering. O(depth)
  // per append (the same depth the building recursion already carries);
  // the paper's documents are a handful of levels deep.
  for (NodeId a = parent; a != kNoNode; a = nodes_[a].parent) {
    nodes_[a].subtree_end = id + 1;
  }
  return id;
}

void Document::AppendChild(NodeId parent, NodeId child) {
  Node& p = nodes_[parent];
  if (p.first_child == kNoNode) {
    p.first_child = child;
  } else {
    nodes_[p.last_child].next_sibling = child;
  }
  p.last_child = child;
}

NodeId Document::AddElement(NodeId parent, std::string_view tag) {
  NodeId id = NewNode(NodeKind::kElement, parent);
  nodes_[id].name = names_.Intern(tag);
  AppendChild(parent, id);
  return id;
}

NodeId Document::AddText(NodeId parent, std::string_view text) {
  NodeId id = NewNode(NodeKind::kText, parent);
  nodes_[id].text = static_cast<uint32_t>(texts_.size());
  texts_.emplace_back(text);
  AppendChild(parent, id);
  return id;
}

NodeId Document::AddAttribute(NodeId element, std::string_view name,
                              std::string_view value) {
  assert(nodes_[element].kind == NodeKind::kElement);
  NodeId id = NewNode(NodeKind::kAttribute, element);
  nodes_[id].name = names_.Intern(name);
  nodes_[id].text = static_cast<uint32_t>(texts_.size());
  texts_.emplace_back(value);
  // Chain onto the element's attribute list (order of declaration).
  Node& el = nodes_[element];
  if (el.first_attr == kNoNode) {
    el.first_attr = id;
  } else {
    NodeId a = el.first_attr;
    while (nodes_[a].next_sibling != kNoNode) a = nodes_[a].next_sibling;
    nodes_[a].next_sibling = id;
  }
  return id;
}

std::string Document::StringValue(NodeId id) const {
  const Node& n = nodes_[id];
  if (n.kind == NodeKind::kText || n.kind == NodeKind::kAttribute) {
    return std::string(texts_[n.text]);
  }
  // Element/document: concatenate text of all descendants, in order.
  // Allocation-free pre-order walk via the child/sibling chains (ids are in
  // document order but the chain walk is robust even if they were not).
  std::string out;
  NodeId cur = n.first_child;
  while (cur != kNoNode) {
    const Node& c = nodes_[cur];
    if (c.kind == NodeKind::kText) {
      out += texts_[c.text];
    }
    NodeId child =
        c.kind == NodeKind::kElement ? c.first_child : kNoNode;
    if (child != kNoNode) {
      cur = child;
      continue;
    }
    while (cur != kNoNode) {
      NodeId sibling = nodes_[cur].next_sibling;
      if (sibling != kNoNode) {
        cur = sibling;
        break;
      }
      NodeId parent = nodes_[cur].parent;
      cur = parent == id ? kNoNode : parent;
    }
  }
  return out;
}

void Document::PrepareSharedReads() const {
  atoms_->slots = std::vector<std::atomic<const Atom*>>(nodes_.size());
}

const Atom& Document::FillAtom(NodeId id) const {
  AtomTable& table = *atoms_;
  // Compute outside the lock: subtree scans can be long, and two workers
  // racing on the same cold node both compute — the first publish wins and
  // the loser's result is dropped. Preorder ids make an element's text
  // descendants, in document order, the kText nodes of
  // [id+1, subtree_end): one text is viewed in place, two or more are
  // concatenated once.
  static constexpr std::string_view kEmpty = "";
  const Node& n = nodes_[id];
  std::string_view bytes = kEmpty;
  std::string concat;
  size_t text_count = 0;
  if (n.kind == NodeKind::kText || n.kind == NodeKind::kAttribute) {
    bytes = texts_[n.text];
  } else {
    for (NodeId d = id + 1; d < n.subtree_end; ++d) {
      if (nodes_[d].kind != NodeKind::kText) continue;
      std::string_view text = texts_[nodes_[d].text];
      if (++text_count == 1) {
        bytes = text;
        continue;
      }
      if (text_count == 2) concat.assign(bytes);
      concat += text;
    }
    if (text_count >= 2) bytes = concat;
  }
  Atom atom{bytes, std::hash<std::string_view>{}(bytes),
            TryParseNumber(bytes)};
  std::lock_guard<std::mutex> lock(table.mu);
  std::atomic<const Atom*>& slot = table.slots[id];
  if (const Atom* won = slot.load(std::memory_order_relaxed)) return *won;
  if (text_count >= 2) atom.bytes = table.owned.emplace_back(std::move(concat));
  const Atom& published = table.entries.emplace_back(atom);
  slot.store(&published, std::memory_order_release);
  return published;
}

size_t Document::CountElements(std::string_view tag) const {
  uint32_t id = names_.Find(tag);
  if (id == UINT32_MAX) return 0;
  size_t count = 0;
  for (const Node& n : nodes_) {
    if (n.kind == NodeKind::kElement && n.name == id) ++count;
  }
  return count;
}

}  // namespace nalq::xml
