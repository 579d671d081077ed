#include "xml/serializer.h"

#include "xml/parser.h"

namespace nalq::xml {

namespace {

void Indent(std::string* out, int level) {
  out->append(static_cast<size_t>(level) * 2, ' ');
}

/// Children are walked the way node.h derives them: past the element's
/// attributes, each child starts where the previous one's extent ends.
void SerializeRec(const Document& doc, NodeId id, std::string* out,
                  const SerializeOptions& options, int level) {
  const NodeId end = doc.subtree_end(id);
  switch (doc.kind(id)) {
    case NodeKind::kText:
      if (options.indent) Indent(out, level);
      *out += EncodeEntities(doc.raw_text(id));
      if (options.indent) *out += '\n';
      return;
    case NodeKind::kAttribute:
      *out += EncodeEntities(doc.raw_text(id), /*for_attribute=*/true);
      return;
    case NodeKind::kDocument:
      for (NodeId c = doc.first_child(id); c < end; c = doc.subtree_end(c)) {
        SerializeRec(doc, c, out, options, level);
      }
      return;
    case NodeKind::kElement:
      break;
  }
  if (options.indent) Indent(out, level);
  *out += '<';
  *out += doc.node_name(id);
  NodeId first = id + 1;  // past the attributes: the first child, if < end
  for (; first < end && doc.kind(first) == NodeKind::kAttribute; ++first) {
    *out += ' ';
    *out += doc.node_name(first);
    *out += "=\"";
    *out += EncodeEntities(doc.raw_text(first), /*for_attribute=*/true);
    *out += '"';
  }
  if (first == end) {
    *out += "/>";
    if (options.indent) *out += '\n';
    return;
  }
  *out += '>';
  // Elements with a single text child render inline even when indenting.
  bool single_text = doc.kind(first) == NodeKind::kText &&
                     doc.subtree_end(first) == end;
  if (options.indent && !single_text) *out += '\n';
  for (NodeId c = first; c < end; c = doc.subtree_end(c)) {
    if (single_text) {
      *out += EncodeEntities(doc.raw_text(c));
    } else {
      SerializeRec(doc, c, out, options, level + 1);
    }
  }
  if (options.indent && !single_text) Indent(out, level);
  *out += "</";
  *out += doc.node_name(id);
  *out += '>';
  if (options.indent) *out += '\n';
}

}  // namespace

void SerializeTo(const Document& doc, NodeId id, std::string* out,
                 const SerializeOptions& options) {
  SerializeRec(doc, id, out, options, options.indent_level);
}

std::string Serialize(const Document& doc, NodeId id,
                      const SerializeOptions& options) {
  std::string out;
  SerializeTo(doc, id, &out, options);
  return out;
}

std::string SerializeDocument(const Document& doc,
                              const SerializeOptions& options) {
  return Serialize(doc, doc.root(), options);
}

}  // namespace nalq::xml
