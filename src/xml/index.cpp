#include "xml/index.h"

#include <stdexcept>

namespace nalq::xml {

DocumentIndex::DocumentIndex(const Document& doc) {
  elements_.reserve(doc.names().size());
  for (NodeId id = 0; id < doc.node_count(); ++id) {
    // Validate the structural numbering while we are touching every node
    // anyway: a sibling starting inside the previous sibling's extent means
    // the document was not built depth-first (Document::NewNode asserts
    // this in Debug builds; in Release the corruption would otherwise make
    // indexed range scans silently return wrong results).
    NodeId sibling = doc.next_sibling(id);
    if (sibling != kNoNode && sibling < doc.subtree_end(id)) {
      throw std::logic_error(
          "document '" + doc.name() +
          "' was not built depth-first: subtree extents overlap");
    }
    switch (doc.kind(id)) {
      case NodeKind::kElement:
        elements_[doc.name_id(id)].push_back(id);
        all_elements_.push_back(id);
        break;
      case NodeKind::kAttribute:
        attributes_[doc.name_id(id)].push_back(id);
        break;
      case NodeKind::kText:
        text_nodes_.push_back(id);
        break;
      case NodeKind::kDocument:
        break;
    }
  }
}

std::span<const NodeId> DocumentIndex::Elements(uint32_t name_id) const {
  auto it = elements_.find(name_id);
  return it == elements_.end() ? std::span<const NodeId>() : it->second;
}

std::span<const NodeId> DocumentIndex::Attributes(uint32_t name_id) const {
  auto it = attributes_.find(name_id);
  return it == attributes_.end() ? std::span<const NodeId>() : it->second;
}

}  // namespace nalq::xml
