// Minimal, dependency-free XML parser sufficient for the XQuery use-case
// documents: elements, attributes, character data with the five predefined
// entities, comments, processing instructions and a DOCTYPE declaration whose
// internal subset is captured verbatim for the DTD reasoner.
#ifndef NALQ_XML_PARSER_H_
#define NALQ_XML_PARSER_H_

#include <stdexcept>
#include <string>
#include <string_view>

#include "xml/node.h"

namespace nalq::xml {

/// Error with byte offset into the input.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, size_t offset)
      : std::runtime_error(message + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  size_t offset() const { return offset_; }

 private:
  size_t offset_;
};

struct ParseOptions {
  /// Drop text nodes that consist only of XML whitespace (indentation).
  bool strip_whitespace_text = true;
};

/// How deeply elements may nest: the root element is level 1. A deeper
/// document fails with ParseError before the recursive descent can exhaust
/// the stack; 256 is libxml2's default limit.
inline constexpr int kMaxElementDepth = 256;

/// Parses `input` into a Document named `doc_name`. Throws ParseError.
Document ParseDocument(std::string doc_name, std::string_view input,
                       const ParseOptions& options = {});

/// Decodes the five predefined entities and numeric character references
/// (&#NN; / &#xNN; limited to ASCII) in `s`.
std::string DecodeEntities(std::string_view s);

/// Encodes &, <, > (always) and quotes (if `for_attribute`).
std::string EncodeEntities(std::string_view s, bool for_attribute = false);

}  // namespace nalq::xml

#endif  // NALQ_XML_PARSER_H_
