// The NAL value domain.
//
// Attribute values are atomic values (null, boolean, integer, double,
// string), node handles pointing into stored documents (the paper restricts
// tree-valued attributes "to node handles pointing to nodes in trees stored
// in the database", Sec. 1), sequences of items (XPath results, let-bound
// item sequences) or nested sequences of tuples (group attributes created by
// Γ and χ).
//
// A string is owned or borrowed, and both report ValueKind::kString with the
// same bytes, hash, order and spool encoding. An owned string (a literal,
// concat(), string(), a spool decode) shares one refcounted allocation. A
// borrowed string is what atomizing a node yields: one pointer to the
// node's xml::Atom, which carries the bytes, their hash and their numeric
// parse, so Hash and ToNumber read a cached field and Equals settles equal
// atoms by identity. Its lifetime: see xml/store.h, borrowed atoms.
#ifndef NALQ_NAL_VALUE_H_
#define NALQ_NAL_VALUE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "xml/node.h"

namespace nalq::xml {
class Store;
}  // namespace nalq::xml

namespace nalq::nal {

class Sequence;  // sequence of tuples (sequence.h)
class Value;

/// Sequence of items — the XQuery data model's flat item sequence, used for
/// XPath results and let-bound values before tuple construction (e[a]).
using ItemSeq = std::vector<Value>;

enum class ValueKind : uint8_t {
  kNull,
  kBool,
  kInt,
  kDouble,
  kString,
  kNode,
  kItemSeq,
  kTupleSeq,
};

/// Immutable, cheaply copyable value (strings and sequences are shared or
/// borrowed).
class Value {
 public:
  Value() : rep_(std::monostate{}) {}
  explicit Value(bool b) : rep_(b) {}
  explicit Value(int64_t i) : rep_(i) {}
  explicit Value(double d) : rep_(d) {}
  explicit Value(std::string s)
      : rep_(std::make_shared<const std::string>(std::move(s))) {}
  explicit Value(std::string_view s)
      : rep_(std::make_shared<const std::string>(s)) {}
  explicit Value(const char* s)
      : rep_(std::make_shared<const std::string>(s)) {}
  explicit Value(xml::NodeRef n) : rep_(n) {}
  explicit Value(std::shared_ptr<const ItemSeq> items)
      : rep_(std::move(items)) {}
  explicit Value(std::shared_ptr<const Sequence> tuples)
      : rep_(std::move(tuples)) {}

  static Value Null() { return Value(); }
  static Value FromItems(ItemSeq items);
  static Value FromTuples(Sequence tuples);

  ValueKind kind() const {
    size_t index = rep_.index();
    return index == kBorrowedIndex ? ValueKind::kString
                                   : static_cast<ValueKind>(index);
  }
  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_numeric() const {
    return kind() == ValueKind::kInt || kind() == ValueKind::kDouble;
  }
  bool is_sequence() const {
    return kind() == ValueKind::kItemSeq || kind() == ValueKind::kTupleSeq;
  }

  bool AsBool() const { return std::get<bool>(rep_); }
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  /// The bytes of an owned or a borrowed string.
  std::string_view AsString() const {
    if (const xml::Atom* atom = borrowed()) return atom->bytes;
    return *std::get<std::shared_ptr<const std::string>>(rep_);
  }
  xml::NodeRef AsNode() const { return std::get<xml::NodeRef>(rep_); }
  const ItemSeq& AsItems() const {
    return *std::get<std::shared_ptr<const ItemSeq>>(rep_);
  }
  const Sequence& AsTuples() const {
    return *std::get<std::shared_ptr<const Sequence>>(rep_);
  }
  std::shared_ptr<const Sequence> SharedTuples() const {
    return std::get<std::shared_ptr<const Sequence>>(rep_);
  }

  /// Number of items when viewed as a sequence; atomic values and nodes count
  /// as singletons, null as the empty sequence.
  size_t SequenceLength() const;

  /// Atomization: nodes become their string value, borrowed from the
  /// node's atom (no copy); everything atomic stays. Sequences atomize
  /// item-wise (returned via out-param overload in expr).
  Value Atomize(const xml::Store& store) const;

  /// String conversion (atomizing nodes through `store`).
  std::string ToString(const xml::Store& store) const;

  /// ToString as a view, without a copy where the bytes already exist: a
  /// string, a node's atom, or a one-item sequence of either. Anything else
  /// (numbers, booleans, longer sequences) is rendered into `*scratch`,
  /// which the view then points into. The view lives as long as this value
  /// and `*scratch`.
  std::string_view ToStringView(const xml::Store& store,
                                std::string* scratch) const;

  /// Numeric conversion; nullopt if not convertible.
  std::optional<double> ToNumber(const xml::Store& store) const;

  /// Deep structural equality for *atomized* values (null==null). Used for
  /// grouping keys and result comparison; numeric values compare across
  /// int/double.
  bool Equals(const Value& other) const;

  /// Hash consistent with Equals for atomic values.
  size_t Hash() const;

  /// Total order over atomic values for deterministic output: nulls first,
  /// then bools, numbers, strings, nodes. Sequences compare by length then
  /// element-wise (only meaningful in tests).
  static std::strong_ordering Compare(const Value& a, const Value& b);

  /// Debug rendering without a store (nodes print as doc:id).
  std::string DebugString() const;

 private:
  /// A borrowed string (see the file comment); only Atomize makes one.
  explicit Value(const xml::Atom& atom)
      : rep_(std::in_place_index<kBorrowedIndex>, &atom) {}

  const xml::Atom* borrowed() const {
    const xml::Atom* const* atom = std::get_if<kBorrowedIndex>(&rep_);
    return atom != nullptr ? *atom : nullptr;
  }

  /// Variant alternatives 0–7 are numbered as ValueKind; the borrowed
  /// string comes last and reports kString.
  static constexpr size_t kBorrowedIndex = 8;
  std::variant<std::monostate, bool, int64_t, double,
               std::shared_ptr<const std::string>, xml::NodeRef,
               std::shared_ptr<const ItemSeq>,
               std::shared_ptr<const Sequence>, const xml::Atom*>
      rep_;
};

struct ValueHash {
  size_t operator()(const Value& v) const noexcept { return v.Hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const noexcept {
    return a.Equals(b);
  }
};

/// Parses a string as a number if it looks like one (used when comparing
/// untyped XML text against numeric literals, e.g. @year > 1993). The same
/// function that fills a node atom's cached number (xml/node.h).
using xml::TryParseNumber;

}  // namespace nalq::nal

#endif  // NALQ_NAL_VALUE_H_
