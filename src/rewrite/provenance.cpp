#include "rewrite/provenance.h"

#include "nal/eval.h"

namespace nalq::rewrite {

namespace {

using nal::AlgebraOp;
using nal::Expr;
using nal::ExprKind;
using nal::OpKind;
using nal::Symbol;

/// Does the relative path `rel`, from one node of `base`, yield at most one
/// node?
bool AtMostOneNode(const AttrProvenance& base, const xml::Path& rel,
                   const xml::DtdRegistry* dtds) {
  if (rel.absolute()) return false;
  // An element carries at most one attribute of a name; no DTD needed.
  // `@*` selects all of them.
  if (rel.steps().size() == 1 &&
      rel.steps()[0].axis == xml::Axis::kAttribute) {
    return !rel.steps()[0].wildcard();
  }
  if (!base.known || base.is_nested || dtds == nullptr) return false;
  const xml::Dtd* dtd = dtds->Find(base.doc);
  return dtd != nullptr &&
         dtd->SingleNodePath(base.path, rel, /*exactly_one=*/false);
}

/// Provenance of a scalar expression given the provenance of the attributes
/// it references.
AttrProvenance ExprProvenance(const Expr& e, const ProvenanceMap& env,
                              const xml::DtdRegistry* dtds) {
  AttrProvenance out;
  switch (e.kind) {
    case ExprKind::kAttrRef: {
      auto it = env.find(e.attr);
      if (it != env.end()) return it->second;
      return out;
    }
    case ExprKind::kFnCall: {
      out.single = nal::ReturnsAtMostOneItem(e.fn);
      if ((e.fn == "doc" || e.fn == "document") && e.children.size() == 1 &&
          e.children[0]->kind == ExprKind::kConst &&
          e.children[0]->literal.kind() == nal::ValueKind::kString) {
        out.known = true;
        out.doc = e.children[0]->literal.AsString();
        out.path = xml::Path(true, {});
        return out;
      }
      if (e.fn == "distinct-values" && e.children.size() == 1) {
        AttrProvenance inner = ExprProvenance(*e.children[0], env, dtds);
        if (inner.known) {
          inner.distinct = true;
          inner.single = false;
          return inner;
        }
      }
      return out;
    }
    case ExprKind::kPath: {
      AttrProvenance base = ExprProvenance(*e.children[0], env, dtds);
      bool single = base.single && AtMostOneNode(base, e.path, dtds);
      if (base.known) {
        out = base;
        out.distinct = false;
        out.path = base.path.Concat(e.path);
      }
      out.single = single;
      return out;
    }
    case ExprKind::kBindTuples: {
      AttrProvenance inner = ExprProvenance(*e.children[0], env, dtds);
      if (inner.known) {
        out = inner;
        out.is_nested = true;
        out.nested_item = e.attr;
      }
      out.single = inner.single;  // a sequence of at most one tuple
      return out;
    }
    case ExprKind::kConst:
      out.single = e.literal.kind() != nal::ValueKind::kItemSeq &&
                   e.literal.kind() != nal::ValueKind::kTupleSeq;
      return out;
    case ExprKind::kAgg:
      out.single = e.agg.kind != nal::AggSpec::Kind::kId &&
                   e.agg.kind != nal::AggSpec::Kind::kProjectItems;
      return out;
    case ExprKind::kCond:
      out.single = ExprProvenance(*e.children[1], env, dtds).single &&
                   ExprProvenance(*e.children[2], env, dtds).single;
      return out;
    case ExprKind::kCmp:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
    case ExprKind::kQuant:
    case ExprKind::kArith:
      out.single = true;
      return out;
    case ExprKind::kNestedAlg:
      return out;
  }
  return out;
}

void MarkAllIncomplete(ProvenanceMap* map) {
  for (auto& [attr, prov] : *map) prov.complete = false;
}

}  // namespace

ProvenanceMap DeriveProvenance(const nal::AlgebraOp& op,
                               const xml::DtdRegistry* dtds) {
  auto derive = [dtds](const nal::AlgebraPtr& child) {
    return DeriveProvenance(*child, dtds);
  };
  switch (op.kind) {
    case OpKind::kSingleton:
      return {};
    case OpKind::kMap:
    case OpKind::kUnnestMap: {
      ProvenanceMap map = derive(op.child(0));
      AttrProvenance prov = ExprProvenance(*op.expr, map, dtds);
      // χ/Υ keep the child's completeness; the new attribute enumerates all
      // path results per input tuple. If the input enumerated its own source
      // completely, the composition is complete too — captured by the
      // base provenance's `complete` flag already folded in.
      if (op.kind == OpKind::kUnnestMap) prov.single = true;  // one item
      map[op.attr] = prov;
      return map;
    }
    case OpKind::kSelect: {
      // A filter breaks completeness (values may be missing afterwards).
      ProvenanceMap map = derive(op.child(0));
      MarkAllIncomplete(&map);
      return map;
    }
    case OpKind::kProject: {
      ProvenanceMap map = derive(op.child(0));
      ProvenanceMap out;
      // Renames first.
      for (const auto& [to, from] : op.renames) {
        auto it = map.find(from);
        if (it != map.end()) {
          map[to] = it->second;
          map.erase(from);
        }
      }
      if (op.pmode == nal::ProjectMode::kDrop) {
        for (Symbol a : op.attrs) map.erase(a);
        return map;
      }
      if (!op.attrs.empty()) {
        for (Symbol a : op.attrs) {
          auto it = map.find(a);
          if (it != map.end()) out[a] = it->second;
        }
      } else {
        out = std::move(map);
      }
      if (op.pmode == nal::ProjectMode::kDistinct && op.attrs.size() == 1) {
        auto it = out.find(op.attrs[0]);
        if (it != out.end()) it->second.distinct = true;
      }
      return out;
    }
    case OpKind::kUnnest: {
      ProvenanceMap map = derive(op.child(0));
      auto it = map.find(op.attr);
      if (it != map.end() && it->second.is_nested) {
        AttrProvenance item = it->second;
        Symbol inner = item.nested_item;
        item.is_nested = false;
        item.nested_item = Symbol();
        item.single = true;  // μ yields one item per tuple
        map.erase(op.attr);
        map[inner] = item;
      } else {
        map.erase(op.attr);
      }
      return map;
    }
    case OpKind::kCross:
    case OpKind::kJoin:
    case OpKind::kOuterJoin: {
      ProvenanceMap left = derive(op.child(0));
      ProvenanceMap right = derive(op.child(1));
      left.insert(right.begin(), right.end());
      if (op.kind != OpKind::kCross) MarkAllIncomplete(&left);
      return left;
    }
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin: {
      ProvenanceMap map = derive(op.child(0));
      MarkAllIncomplete(&map);
      return map;
    }
    case OpKind::kGroupUnary: {
      ProvenanceMap map = derive(op.child(0));
      ProvenanceMap out;
      for (Symbol a : op.left_attrs) {
        auto it = map.find(a);
        if (it != map.end()) {
          AttrProvenance prov = it->second;
          prov.distinct = true;  // unary Γ dedups its grouping attributes
          out[a] = prov;
        }
      }
      return out;
    }
    case OpKind::kGroupBinary: {
      // Left side passes through unchanged.
      return derive(op.child(0));
    }
    case OpKind::kSort:
    case OpKind::kXiSimple:
      return derive(op.child(0));
    case OpKind::kXiGroup:
      return {};
  }
  return {};
}

AttrProvenance ProvenanceOf(const ProvenanceMap& map, nal::Symbol attr) {
  auto it = map.find(attr);
  return it == map.end() ? AttrProvenance() : it->second;
}

}  // namespace nalq::rewrite
