#include "xml/parser.h"

#include <cctype>
#include <vector>

namespace nalq::xml {

namespace {

bool IsXmlWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
         c == '-' || c == '.';
}

/// Recursive-descent XML parser. Builds the Document depth-first — elements
/// before their attributes, attributes before child content — so node ids
/// coincide with document order and every subtree gets its contiguous
/// [pre, pre+size) structural extent at parse time (see node.h).
class Parser {
 public:
  Parser(std::string_view input, const ParseOptions& options, Document* doc)
      : in_(input), options_(options), doc_(doc) {}

  void Parse() {
    SkipProlog();
    if (Eof()) Fail("empty document");
    ParseElement(doc_->root(), 1);
    SkipMisc();
    if (!Eof()) Fail("trailing content after root element");
  }

 private:
  bool Eof() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  bool StartsWith(std::string_view s) const {
    return in_.substr(pos_, s.size()) == s;
  }
  void Expect(char c) {
    if (Eof() || Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  [[noreturn]] void Fail(const std::string& message) const {
    throw ParseError(message, pos_);
  }
  void SkipWs() {
    while (!Eof() && IsXmlWhitespace(Peek())) ++pos_;
  }

  void SkipProlog() {
    for (;;) {
      SkipWs();
      if (StartsWith("<?")) {
        SkipUntil("?>");
      } else if (StartsWith("<!--")) {
        SkipUntil("-->");
      } else if (StartsWith("<!DOCTYPE")) {
        ParseDoctype();
      } else {
        return;
      }
    }
  }

  void SkipMisc() {
    for (;;) {
      SkipWs();
      if (StartsWith("<?")) {
        SkipUntil("?>");
      } else if (StartsWith("<!--")) {
        SkipUntil("-->");
      } else {
        return;
      }
    }
  }

  void SkipUntil(std::string_view terminator) {
    size_t found = in_.find(terminator, pos_);
    if (found == std::string_view::npos) Fail("unterminated construct");
    pos_ = found + terminator.size();
  }

  void ParseDoctype() {
    pos_ += 9;  // "<!DOCTYPE"
    // Scan to '>' honoring one level of [...] internal subset.
    size_t subset_begin = std::string_view::npos;
    size_t subset_end = std::string_view::npos;
    int bracket = 0;
    while (!Eof()) {
      char c = Peek();
      if (c == '[') {
        if (bracket == 0) subset_begin = pos_ + 1;
        ++bracket;
      } else if (c == ']') {
        --bracket;
        if (bracket == 0) subset_end = pos_;
      } else if (c == '>' && bracket == 0) {
        ++pos_;
        if (subset_begin != std::string_view::npos &&
            subset_end != std::string_view::npos) {
          doc_->set_dtd_text(std::string(
              in_.substr(subset_begin, subset_end - subset_begin)));
        }
        return;
      }
      ++pos_;
    }
    Fail("unterminated DOCTYPE");
  }

  std::string_view ParseName() {
    if (Eof() || !IsNameStart(Peek())) Fail("expected name");
    size_t start = pos_;
    while (!Eof() && IsNameChar(Peek())) ++pos_;
    return in_.substr(start, pos_ - start);
  }

  /// Parses the element at nesting level `depth` (the root is 1).
  void ParseElement(NodeId parent, int depth) {
    if (depth > kMaxElementDepth) {
      Fail("elements nested deeper than " + std::to_string(kMaxElementDepth) +
           " levels");
    }
    Expect('<');
    std::string_view tag = ParseName();
    NodeId el = doc_->AddElement(parent, tag);
    // Attributes.
    for (;;) {
      SkipWs();
      if (Eof()) Fail("unterminated start tag");
      char c = Peek();
      if (c == '>') {
        ++pos_;
        break;
      }
      if (c == '/') {
        ++pos_;
        Expect('>');
        return;  // empty element
      }
      std::string_view name = ParseName();
      SkipWs();
      Expect('=');
      SkipWs();
      char quote = Peek();
      if (quote != '"' && quote != '\'') Fail("expected quoted attribute");
      ++pos_;
      size_t start = pos_;
      while (!Eof() && Peek() != quote) ++pos_;
      if (Eof()) Fail("unterminated attribute value");
      std::string value = DecodeEntities(in_.substr(start, pos_ - start));
      ++pos_;
      const uint32_t name_id =
          doc_->name_id(doc_->AddAttribute(el, name, value));
      // XML 1.0 "Unique Att Spec"; the rewriter relies on it (an `@name`
      // step yields at most one node).
      if (name_id >= attribute_owner_.size()) {
        attribute_owner_.resize(name_id + 1, kNoNode);
      }
      if (attribute_owner_[name_id] == el) {
        Fail("duplicate attribute '" + std::string(name) + "'");
      }
      attribute_owner_[name_id] = el;
    }
    // Content.
    for (;;) {
      if (Eof()) Fail("unterminated element");
      if (StartsWith("</")) {
        pos_ += 2;
        std::string_view close = ParseName();
        if (close != tag) Fail("mismatched end tag </" + std::string(close) +
                               "> for <" + std::string(tag) + ">");
        SkipWs();
        Expect('>');
        return;
      }
      if (StartsWith("<!--")) {
        SkipUntil("-->");
        continue;
      }
      if (StartsWith("<![CDATA[")) {
        pos_ += 9;
        size_t end = in_.find("]]>", pos_);
        if (end == std::string_view::npos) Fail("unterminated CDATA");
        doc_->AddText(el, in_.substr(pos_, end - pos_));
        pos_ = end + 3;
        continue;
      }
      if (StartsWith("<?")) {
        SkipUntil("?>");
        continue;
      }
      if (Peek() == '<') {
        ParseElement(el, depth + 1);
        continue;
      }
      // Character data.
      size_t start = pos_;
      while (!Eof() && Peek() != '<') ++pos_;
      std::string_view raw = in_.substr(start, pos_ - start);
      bool all_ws = true;
      for (char c : raw) {
        if (!IsXmlWhitespace(c)) {
          all_ws = false;
          break;
        }
      }
      if (all_ws && options_.strip_whitespace_text) continue;
      doc_->AddText(el, DecodeEntities(raw));
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
  ParseOptions options_;
  Document* doc_;
  /// The element each attribute name id was last seen on.
  std::vector<NodeId> attribute_owner_;
};

}  // namespace

std::string DecodeEntities(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size();) {
    if (s[i] != '&') {
      out += s[i++];
      continue;
    }
    size_t semi = s.find(';', i);
    if (semi == std::string_view::npos) {
      out += s[i++];
      continue;
    }
    std::string_view entity = s.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      out += '&';
    } else if (entity == "lt") {
      out += '<';
    } else if (entity == "gt") {
      out += '>';
    } else if (entity == "quot") {
      out += '"';
    } else if (entity == "apos") {
      out += '\'';
    } else if (!entity.empty() && entity[0] == '#') {
      int code = 0;
      if (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X')) {
        for (char c : entity.substr(2)) {
          code = code * 16 + (std::isdigit(static_cast<unsigned char>(c))
                                  ? c - '0'
                                  : (std::tolower(c) - 'a' + 10));
        }
      } else {
        for (char c : entity.substr(1)) code = code * 10 + (c - '0');
      }
      if (code > 0 && code < 128) {
        out += static_cast<char>(code);
      } else {
        // Pass through non-ASCII references untouched.
        out += s.substr(i, semi - i + 1);
      }
    } else {
      out += s.substr(i, semi - i + 1);
    }
    i = semi + 1;
  }
  return out;
}

std::string EncodeEntities(std::string_view s, bool for_attribute) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        if (for_attribute) {
          out += "&quot;";
        } else {
          out += c;
        }
        break;
      default:
        out += c;
    }
  }
  return out;
}

Document ParseDocument(std::string doc_name, std::string_view input,
                       const ParseOptions& options) {
  Document doc(std::move(doc_name));
  Parser parser(input, options, &doc);
  parser.Parse();
  return doc;
}

}  // namespace nalq::xml
