#include "xml/node.h"

#include <charconv>
#include <stdexcept>

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

namespace {

uint32_t PackKindName(NodeKind kind, uint32_t name) {
  assert(name <= Node::kNameMask);
  return static_cast<uint32_t>(kind) << Node::kNameBits | name;
}

}  // namespace

std::optional<std::string_view> ArenaValue(std::span<const char> arena,
                                           uint32_t offset) {
  // A LEB128 length prefix of at most five bytes, then the value's bytes.
  uint64_t length = 0;
  for (size_t at = offset, shift = 0; at < arena.size() && shift < 35;
       shift += 7) {
    const auto b = static_cast<uint8_t>(arena[at++]);
    length |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) != 0) continue;
    if (length > UINT32_MAX || length > arena.size() - at) break;
    return std::string_view(arena.data() + at, length);
  }
  return std::nullopt;
}

Document::Document(std::string name)
    : name_(std::move(name)), atoms_(std::make_unique<AtomTable>()) {
  nodes_.push_back(
      Node{PackKindName(NodeKind::kDocument, 0), kNoNode, 1, 0});
}

Document::Document(std::string name, StringInterner names,
                   std::vector<Node> records, std::vector<char> arena)
    : name_(std::move(name)),
      names_(std::move(names)),
      nodes_(std::move(records)),
      arena_(std::move(arena)),
      atoms_(std::make_unique<AtomTable>()) {}

NodeId Document::NewNode(NodeKind kind, uint32_t name, NodeId parent,
                         uint32_t text) {
  if (nodes_.size() >= kNoNode || name > Node::kNameMask) {
    throw std::length_error("document '" + name_ +
                            "' exceeds the node or name id range");
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  // Depth-first construction means every append targets the rightmost open
  // node, whose extent currently ends exactly at the new id. Appending
  // anywhere else would silently corrupt the structural numbering (an
  // ancestor's extent would swallow its later siblings), so fail fast in
  // Debug builds rather than let indexed path evaluation return wrong
  // results.
  assert(parent < id && nodes_[parent].subtree_end == id);
  nodes_.push_back(Node{PackKindName(kind, name), parent, id + 1, text});
  // Extending every ancestor's extent over the new node keeps all subtree
  // extents contiguous — the [pre, pre+size) structural numbering. O(depth)
  // per append (the same depth the building recursion already carries);
  // the paper's documents are a handful of levels deep.
  for (NodeId a = parent; a != kNoNode; a = nodes_[a].parent) {
    nodes_[a].subtree_end = id + 1;
  }
  return id;
}

uint32_t Document::AppendValue(std::string_view value) {
  if (arena_.size() + value.size() + 5 > UINT32_MAX) {
    throw std::length_error("document '" + name_ +
                            "' exceeds the 4 GiB text arena");
  }
  const auto offset = static_cast<uint32_t>(arena_.size());
  for (size_t n = value.size();; n >>= 7) {  // the LEB128 length prefix
    arena_.push_back(static_cast<char>(n < 0x80 ? n : (n & 0x7F) | 0x80));
    if (n < 0x80) break;
  }
  arena_.insert(arena_.end(), value.begin(), value.end());
  return offset;
}

NodeId Document::AddElement(NodeId parent, std::string_view tag) {
  return NewNode(NodeKind::kElement, names_.Intern(tag), parent, 0);
}

NodeId Document::AddText(NodeId parent, std::string_view text) {
  return NewNode(NodeKind::kText, 0, parent, AppendValue(text));
}

NodeId Document::AddAttribute(NodeId element, std::string_view name,
                              std::string_view value) {
  // Attributes directly follow their element (the navigation in node.h
  // derives first_attr and first_child from it): the last node is the
  // element itself or one of its attributes.
  assert(kind(element) == NodeKind::kElement);
  assert(nodes_.size() == element + 1 ||
         (nodes_.back().kind() == NodeKind::kAttribute &&
          nodes_.back().parent == element));
  return NewNode(NodeKind::kAttribute, names_.Intern(name), element,
                 AppendValue(value));
}

const char* Document::Validate() const {
  const size_t n = nodes_.size();
  if (n == 0 || n >= kNoNode || kind(0) != NodeKind::kDocument ||
      name_id(0) != 0 || nodes_[0].parent != kNoNode ||
      nodes_[0].subtree_end != n || nodes_[0].text != 0) {
    return "node 0 is not a document node spanning every node";
  }
  // One preorder pass. `open` holds the nodes whose extents contain the
  // current id, innermost last; extents nest, so the innermost one ends
  // first and closing from the back suffices.
  std::vector<NodeId> open = {0};
  // The element each attribute name was last seen on: a repeat on the same
  // element is a duplicate (XML's "Unique Att Spec").
  std::vector<NodeId> attribute_owner(names_.size(), kNoNode);
  for (NodeId id = 1; id < n; ++id) {
    const Node& node = nodes_[id];
    while (nodes_[open.back()].subtree_end <= id) open.pop_back();
    if (node.parent != open.back()) {
      return "a node's parent is not the innermost extent enclosing it";
    }
    if (node.subtree_end <= id ||
        node.subtree_end > nodes_[node.parent].subtree_end) {
      return "a node's extent does not nest in its parent's";
    }
    const NodeKind k = node.kind();
    const bool named = k == NodeKind::kElement || k == NodeKind::kAttribute;
    const bool valued = k == NodeKind::kText || k == NodeKind::kAttribute;
    if (k == NodeKind::kDocument) return "a document node below node 0";
    if (named ? node.name() >= names_.size() : node.name() != 0) {
      return "a name id is out of range";
    }
    if (valued ? !ArenaValue(arena_, node.text) : node.text != 0) {
      return "a text offset is out of range";
    }
    if (valued && node.subtree_end != id + 1) {
      return "a text or attribute node has descendants";
    }
    if (k == NodeKind::kAttribute) {
      const Node& previous = nodes_[id - 1];
      if (kind(node.parent) != NodeKind::kElement ||
          (node.parent != id - 1 &&
           (previous.kind() != NodeKind::kAttribute ||
            previous.parent != node.parent))) {
        return "an attribute does not directly follow its element";
      }
      if (attribute_owner[node.name()] == node.parent) {
        return "an element has two attributes of one name";
      }
      attribute_owner[node.name()] = node.parent;
    }
    open.push_back(id);
  }
  return nullptr;
}

std::string Document::StringValue(NodeId id) const {
  const NodeKind k = kind(id);
  if (k == NodeKind::kText || k == NodeKind::kAttribute) {
    return std::string(raw_text(id));
  }
  // Element/document: concatenate text of all descendants, in order.
  // Allocation-free pre-order walk via first_child/next_sibling.
  std::string out;
  NodeId cur = first_child(id);
  while (cur != kNoNode) {
    if (kind(cur) == NodeKind::kText) out += raw_text(cur);
    NodeId child = first_child(cur);
    if (child != kNoNode) {
      cur = child;
      continue;
    }
    while (cur != kNoNode) {
      NodeId sibling = next_sibling(cur);
      if (sibling != kNoNode) {
        cur = sibling;
        break;
      }
      NodeId up = parent(cur);
      cur = up == id ? kNoNode : up;
    }
  }
  return out;
}

void Document::PrepareSharedReads() {
  nodes_.shrink_to_fit();
  arena_.shrink_to_fit();
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
  const NodeKind k = kind(id);
  std::string_view bytes = kEmpty;
  std::string concat;
  size_t text_count = 0;
  if (k == NodeKind::kText || k == NodeKind::kAttribute) {
    bytes = raw_text(id);
  } else {
    for (NodeId d = id + 1; d < nodes_[id].subtree_end; ++d) {
      if (kind(d) != NodeKind::kText) continue;
      std::string_view text = raw_text(d);
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
  const uint32_t element = PackKindName(NodeKind::kElement, id);
  size_t count = 0;
  for (const Node& n : nodes_) count += n.kind_name == element ? 1 : 0;
  return count;
}

}  // namespace nalq::xml
