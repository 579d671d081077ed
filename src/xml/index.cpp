#include "xml/index.h"

namespace nalq::xml {

DocumentIndex::DocumentIndex(const Document& doc)
    : elements_(doc.names().size()), attributes_(doc.names().size()) {
  // Pass 1 counts per name id, so pass 2 fills lists allocated at their
  // exact sizes instead of keeping push_back's growth slack.
  std::vector<uint32_t> element_counts(elements_.size());
  std::vector<uint32_t> attribute_counts(attributes_.size());
  size_t element_total = 0;
  size_t text_total = 0;
  for (NodeId id = 0; id < doc.node_count(); ++id) {
    switch (doc.kind(id)) {
      case NodeKind::kElement:
        ++element_counts[doc.name_id(id)];
        ++element_total;
        break;
      case NodeKind::kAttribute:
        ++attribute_counts[doc.name_id(id)];
        break;
      case NodeKind::kText:
        ++text_total;
        break;
      case NodeKind::kDocument:
        break;
    }
  }
  for (size_t name = 0; name < elements_.size(); ++name) {
    elements_[name].reserve(element_counts[name]);
    attributes_[name].reserve(attribute_counts[name]);
  }
  all_elements_.reserve(element_total);
  text_nodes_.reserve(text_total);
  for (NodeId id = 0; id < doc.node_count(); ++id) {
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
  return name_id < elements_.size()
             ? std::span<const NodeId>(elements_[name_id])
             : std::span<const NodeId>();
}

std::span<const NodeId> DocumentIndex::Attributes(uint32_t name_id) const {
  return name_id < attributes_.size()
             ? std::span<const NodeId>(attributes_[name_id])
             : std::span<const NodeId>();
}

}  // namespace nalq::xml
