#include "nal/value.h"

#include <cassert>
#include <cmath>
#include <sstream>

#include "nal/sequence.h"
#include "xml/store.h"

namespace nalq::nal {

Value Value::FromItems(ItemSeq items) {
  return Value(std::make_shared<const ItemSeq>(std::move(items)));
}

Value Value::FromTuples(Sequence tuples) {
  return Value(std::make_shared<const Sequence>(std::move(tuples)));
}

size_t Value::SequenceLength() const {
  switch (kind()) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kItemSeq:
      return AsItems().size();
    case ValueKind::kTupleSeq:
      return AsTuples().size();
    default:
      return 1;
  }
}

Value Value::Atomize(const xml::Store& store) const {
  if (kind() == ValueKind::kNode) {
    // Repeated atomizations of one node share its atom — the hot path of
    // key building and general comparisons.
    return Value(store.doc_of(AsNode()).AtomOf(AsNode().id));
  }
  if (kind() == ValueKind::kItemSeq) {
    // Atomize item-wise; a singleton sequence atomizes to its single item
    // (the common XPath-result case).
    const ItemSeq& items = AsItems();
    if (items.size() == 1) return items[0].Atomize(store);
    ItemSeq out;
    out.reserve(items.size());
    for (const Value& v : items) out.push_back(v.Atomize(store));
    return FromItems(std::move(out));
  }
  return *this;
}

std::string Value::ToString(const xml::Store& store) const {
  switch (kind()) {
    case ValueKind::kNull:
      return "";
    case ValueKind::kBool:
      return AsBool() ? "true" : "false";
    case ValueKind::kInt:
      return std::to_string(AsInt());
    case ValueKind::kDouble: {
      double d = AsDouble();
      if (d == static_cast<int64_t>(d) && std::abs(d) < 1e15) {
        // Render integral doubles without trailing zeros, decimals with the
        // shortest round-trip representation.
        return std::to_string(static_cast<int64_t>(d));
      }
      std::ostringstream os;
      os << d;
      return os.str();
    }
    case ValueKind::kString:
      return std::string(AsString());
    case ValueKind::kNode:
      return std::string(store.doc_of(AsNode()).AtomOf(AsNode().id).bytes);
    case ValueKind::kItemSeq: {
      std::string out;
      bool first = true;
      for (const Value& v : AsItems()) {
        if (!first) out += ' ';
        out += v.ToString(store);
        first = false;
      }
      return out;
    }
    case ValueKind::kTupleSeq:
      return "<tuple-sequence>";
  }
  return "";
}

std::string_view Value::ToStringView(const xml::Store& store,
                                     std::string* scratch) const {
  switch (kind()) {
    case ValueKind::kString:
      return AsString();
    case ValueKind::kNode:
      return store.doc_of(AsNode()).AtomOf(AsNode().id).bytes;
    case ValueKind::kItemSeq:
      if (AsItems().size() == 1) {
        return AsItems()[0].ToStringView(store, scratch);
      }
      break;
    default:
      break;
  }
  *scratch = ToString(store);
  return *scratch;
}

std::optional<double> Value::ToNumber(const xml::Store& store) const {
  switch (kind()) {
    case ValueKind::kInt:
      return static_cast<double>(AsInt());
    case ValueKind::kDouble:
      return AsDouble();
    case ValueKind::kBool:
      return AsBool() ? 1.0 : 0.0;
    case ValueKind::kString:
      if (const xml::Atom* atom = borrowed()) return atom->number;
      return TryParseNumber(AsString());
    case ValueKind::kNode:
      return store.doc_of(AsNode()).AtomOf(AsNode().id).number;
    case ValueKind::kItemSeq: {
      const ItemSeq& items = AsItems();
      if (items.size() == 1) return items[0].ToNumber(store);
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

bool Value::Equals(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    double a = kind() == ValueKind::kInt ? static_cast<double>(AsInt())
                                         : AsDouble();
    double b = other.kind() == ValueKind::kInt
                   ? static_cast<double>(other.AsInt())
                   : other.AsDouble();
    return a == b;
  }
  if (kind() != other.kind()) return false;
  switch (kind()) {
    case ValueKind::kNull:
      return true;
    case ValueKind::kBool:
      return AsBool() == other.AsBool();
    case ValueKind::kInt:
      return AsInt() == other.AsInt();
    case ValueKind::kDouble:
      return AsDouble() == other.AsDouble();
    case ValueKind::kString: {
      // Atomized node values share one atom per node, so identity settles
      // most probe comparisons, and the cached hashes most of the rest.
      const xml::Atom* a = borrowed();
      const xml::Atom* b = other.borrowed();
      if (a != nullptr && b != nullptr) {
        if (a == b) return true;
        if (a->hash != b->hash) return false;
      }
      return AsString() == other.AsString();
    }
    case ValueKind::kNode:
      return AsNode() == other.AsNode();
    case ValueKind::kItemSeq: {
      const ItemSeq& a = AsItems();
      const ItemSeq& b = other.AsItems();
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (!a[i].Equals(b[i])) return false;
      }
      return true;
    }
    case ValueKind::kTupleSeq:
      return SequencesEqual(AsTuples(), other.AsTuples());
  }
  return false;
}

size_t Value::Hash() const {
  switch (kind()) {
    case ValueKind::kNull:
      return 0x9e3779b9;
    case ValueKind::kBool:
      return AsBool() ? 2 : 1;
    case ValueKind::kInt: {
      // Hash ints as doubles so Equals-equal numerics hash alike.
      double d = static_cast<double>(AsInt());
      return std::hash<double>{}(d);
    }
    case ValueKind::kDouble:
      return std::hash<double>{}(AsDouble());
    case ValueKind::kString:
      if (const xml::Atom* atom = borrowed()) return atom->hash;
      return std::hash<std::string_view>{}(AsString());
    case ValueKind::kNode:
      return xml::NodeRefHash{}(AsNode());
    case ValueKind::kItemSeq: {
      size_t h = 0x517cc1b7;
      for (const Value& v : AsItems()) h = h * 31 + v.Hash();
      return h;
    }
    case ValueKind::kTupleSeq:
      return 0xdeadbeef ^ AsTuples().size();
  }
  return 0;
}

std::strong_ordering Value::Compare(const Value& a, const Value& b) {
  auto rank = [](const Value& v) -> int {
    switch (v.kind()) {
      case ValueKind::kNull:
        return 0;
      case ValueKind::kBool:
        return 1;
      case ValueKind::kInt:
      case ValueKind::kDouble:
        return 2;
      case ValueKind::kString:
        return 3;
      case ValueKind::kNode:
        return 4;
      case ValueKind::kItemSeq:
        return 5;
      case ValueKind::kTupleSeq:
        return 6;
    }
    return 7;
  };
  if (rank(a) != rank(b)) return rank(a) <=> rank(b);
  switch (a.kind()) {
    case ValueKind::kNull:
      return std::strong_ordering::equal;
    case ValueKind::kBool:
      return a.AsBool() <=> b.AsBool();
    case ValueKind::kInt:
    case ValueKind::kDouble: {
      double x = a.kind() == ValueKind::kInt ? static_cast<double>(a.AsInt())
                                             : a.AsDouble();
      double y = b.kind() == ValueKind::kInt ? static_cast<double>(b.AsInt())
                                             : b.AsDouble();
      if (x < y) return std::strong_ordering::less;
      if (x > y) return std::strong_ordering::greater;
      return std::strong_ordering::equal;
    }
    case ValueKind::kString:
      return a.AsString() <=> b.AsString();
    case ValueKind::kNode:
      return a.AsNode() <=> b.AsNode();
    case ValueKind::kItemSeq: {
      const ItemSeq& x = a.AsItems();
      const ItemSeq& y = b.AsItems();
      size_t n = std::min(x.size(), y.size());
      for (size_t i = 0; i < n; ++i) {
        auto c = Compare(x[i], y[i]);
        if (c != std::strong_ordering::equal) return c;
      }
      return x.size() <=> y.size();
    }
    case ValueKind::kTupleSeq:
      return a.AsTuples().size() <=> b.AsTuples().size();
  }
  return std::strong_ordering::equal;
}

std::string Value::DebugString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "NULL";
    case ValueKind::kBool:
      return AsBool() ? "true" : "false";
    case ValueKind::kInt:
      return std::to_string(AsInt());
    case ValueKind::kDouble: {
      std::ostringstream os;
      os << AsDouble();
      return os.str();
    }
    case ValueKind::kString:
      return "\"" + std::string(AsString()) + "\"";
    case ValueKind::kNode:
      return "node(" + std::to_string(AsNode().doc) + ":" +
             std::to_string(AsNode().id) + ")";
    case ValueKind::kItemSeq: {
      std::string out = "(";
      bool first = true;
      for (const Value& v : AsItems()) {
        if (!first) out += ", ";
        out += v.DebugString();
        first = false;
      }
      return out + ")";
    }
    case ValueKind::kTupleSeq:
      return DebugStringOf(AsTuples());
  }
  return "?";
}

}  // namespace nalq::nal
