// DTD parser and constraint reasoner.
//
// The unnesting conditions of Eqv. 3, 5, 8 and 9 require knowledge the paper
// extracts from the DTD ("we know from the DTD that every book contains only
// a single title element", "itemno elements appear only directly beneath
// bidtuple elements", "there are no author elements other than those directly
// under book elements"). This module parses <!ELEMENT> declarations, analyzes
// content models and answers exactly those questions.
#ifndef NALQ_XML_DTD_H_
#define NALQ_XML_DTD_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "xml/xpath.h"

namespace nalq::xml {

/// Occurrence bounds of a child name within a content model.
struct Cardinality {
  int min = 0;             ///< 0 or 1 (we only need "required or not")
  bool unbounded = false;  ///< true if the child can occur more than once
  int max = 0;             ///< meaningful when !unbounded

  bool exactly_one() const { return min == 1 && !unbounded && max == 1; }
  bool at_most_one() const { return !unbounded && max <= 1; }
  bool required() const { return min >= 1; }
};

/// Content model AST (parsed from e.g. "(title, (author+ | editor+),
/// publisher, price)").
struct ContentModel {
  enum class Kind { kPcdata, kEmpty, kAny, kName, kSeq, kChoice };
  Kind kind = Kind::kEmpty;
  std::string name;                                   // kName
  std::vector<std::unique_ptr<ContentModel>> children;  // kSeq/kChoice
  char repetition = 0;  ///< 0, '?', '*', '+'

  /// Occurrence bounds of `child_name` anywhere in this model.
  Cardinality CardinalityOf(std::string_view child_name) const;
  /// All element names mentioned.
  void CollectNames(std::set<std::string>* out) const;
};

struct ElementDecl {
  std::string name;
  ContentModel model;
  std::vector<std::string> attributes;  ///< declared attribute names
};

/// How deeply content-model groups may nest: the outermost "(...)" is
/// level 1. Deeper groups fail Dtd::Parse before its recursive descent can
/// exhaust the stack; 256 matches kMaxElementDepth (xml/parser.h).
inline constexpr int kMaxContentModelDepth = 256;

/// A parsed DTD plus derived structural facts.
class Dtd {
 public:
  /// Parses the internal subset text (the part between '[' and ']' of a
  /// DOCTYPE, or a standalone sequence of declarations). Throws
  /// std::invalid_argument on malformed declarations, including content
  /// models nested deeper than kMaxContentModelDepth.
  static Dtd Parse(std::string_view text);

  bool HasElement(std::string_view name) const;
  const ElementDecl* Find(std::string_view name) const;

  /// The root element: declared first (XQuery use-case DTDs follow this
  /// convention) and never mentioned in another content model.
  const std::string& root() const { return root_; }

  /// Elements whose content model mentions `child`.
  std::vector<std::string> ParentsOf(std::string_view child) const;

  /// True iff every element named `child` can only occur as a direct child
  /// of an element named `parent`. This is the paper's "X elements appear
  /// only directly beneath Y elements" condition.
  bool OccursOnlyUnder(std::string_view child, std::string_view parent) const;

  /// Occurrence bounds of `child` within `parent`'s content model
  /// (nullopt if `parent` is undeclared).
  std::optional<Cardinality> ChildCardinality(std::string_view parent,
                                              std::string_view child) const;

  /// True iff the node set selected by `general` (e.g. //author) is always
  /// equal to the node set selected by `specific` (e.g. //book/author): the
  /// condition e1 = ΠD_{A1:A2}(Π_{A2}(e2)) hinges on this (paper Sec. 5.1).
  ///
  /// Supported shapes: both paths absolute, `general` = //X, `specific` a
  /// path ending in X. True when every DTD-derivable ancestor chain of X
  /// matches `specific`.
  bool PathsSelectSameNodes(const Path& general, const Path& specific) const;

  /// True iff `path` selects every element named by its final step (i.e.
  /// adding the ancestor steps loses nothing).
  bool PathSelectsAllOf(const Path& path) const;

  /// True iff `element` declares an attribute named `attr`.
  bool HasAttribute(std::string_view element, std::string_view attr) const;

  /// True iff the relative path `rel`, evaluated from one node selected by
  /// the absolute path `context` (empty: the document node), yields at most
  /// one node — with `exactly_one`, exactly one element or a declared
  /// attribute. `rel` may be named child steps followed by one named
  /// attribute step. The singleton facts of translation (paper Sec. 3: "in
  /// case the result of some ei is a singleton"; Sec. 5.2: "every book
  /// element has exactly one title child element") and of Eqv. 2–5's
  /// single-valued A1.
  bool SingleNodePath(const Path& context, const Path& rel,
                      bool exactly_one) const;

 private:
  std::map<std::string, ElementDecl, std::less<>> elements_;
  std::string root_;
  std::string first_declared_;
};

/// Maps document names to their DTDs; consulted by the translator (singleton
/// decisions) and by the unnesting condition checker.
class DtdRegistry {
 public:
  void Register(std::string doc_name, Dtd dtd) {
    by_doc_[std::move(doc_name)] = std::move(dtd);
  }
  const Dtd* Find(std::string_view doc_name) const {
    auto it = by_doc_.find(std::string(doc_name));
    return it == by_doc_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, Dtd> by_doc_;
};

}  // namespace nalq::xml

#endif  // NALQ_XML_DTD_H_
