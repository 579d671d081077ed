#include "nal/algebra.h"

namespace nalq::nal {

std::string_view OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kSingleton:
      return "Singleton";
    case OpKind::kSelect:
      return "Select";
    case OpKind::kProject:
      return "Project";
    case OpKind::kMap:
      return "Map";
    case OpKind::kUnnestMap:
      return "UnnestMap";
    case OpKind::kUnnest:
      return "Unnest";
    case OpKind::kCross:
      return "Cross";
    case OpKind::kJoin:
      return "Join";
    case OpKind::kSemiJoin:
      return "SemiJoin";
    case OpKind::kAntiJoin:
      return "AntiJoin";
    case OpKind::kOuterJoin:
      return "OuterJoin";
    case OpKind::kGroupUnary:
      return "GroupUnary";
    case OpKind::kGroupBinary:
      return "GroupBinary";
    case OpKind::kSort:
      return "Sort";
    case OpKind::kXiSimple:
      return "Xi";
    case OpKind::kXiGroup:
      return "XiGroup";
  }
  return "?";
}

AlgebraPtr AlgebraOp::Clone() const {
  auto out = std::make_shared<AlgebraOp>();
  out->kind = kind;
  out->children.reserve(children.size());
  for (const AlgebraPtr& c : children) out->children.push_back(c->Clone());
  if (pred != nullptr) out->pred = pred->Clone();
  out->attr = attr;
  if (expr != nullptr) out->expr = expr->Clone();
  out->pmode = pmode;
  out->attrs = attrs;
  out->renames = renames;
  out->sort_desc = sort_desc;
  out->theta = theta;
  out->left_attrs = left_attrs;
  out->right_attrs = right_attrs;
  out->agg = agg.CloneSpec();
  out->distinct = distinct;
  out->outer = outer;
  out->cse_id = cse_id;
  auto clone_program = [](const XiProgram& program) {
    XiProgram out_program;
    out_program.reserve(program.size());
    for (const XiCommand& c : program) {
      XiCommand copy = c;
      if (c.expr != nullptr) copy.expr = c.expr->Clone();
      out_program.push_back(std::move(copy));
    }
    return out_program;
  };
  out->s1 = clone_program(s1);
  out->s2 = clone_program(s2);
  out->s3 = clone_program(s3);
  return out;
}

namespace {

AlgebraPtr NewOp(OpKind kind, std::vector<AlgebraPtr> children) {
  auto op = std::make_shared<AlgebraOp>();
  op->kind = kind;
  op->children = std::move(children);
  return op;
}

}  // namespace

AlgebraPtr Singleton() { return NewOp(OpKind::kSingleton, {}); }

AlgebraPtr Select(ExprPtr pred, AlgebraPtr input) {
  AlgebraPtr op = NewOp(OpKind::kSelect, {std::move(input)});
  op->pred = std::move(pred);
  return op;
}

AlgebraPtr ProjectKeep(std::vector<Symbol> attrs, AlgebraPtr input) {
  AlgebraPtr op = NewOp(OpKind::kProject, {std::move(input)});
  op->pmode = ProjectMode::kKeep;
  op->attrs = std::move(attrs);
  return op;
}

AlgebraPtr ProjectDrop(std::vector<Symbol> attrs, AlgebraPtr input) {
  AlgebraPtr op = NewOp(OpKind::kProject, {std::move(input)});
  op->pmode = ProjectMode::kDrop;
  op->attrs = std::move(attrs);
  return op;
}

AlgebraPtr ProjectDistinct(std::vector<Symbol> attrs, AlgebraPtr input) {
  AlgebraPtr op = NewOp(OpKind::kProject, {std::move(input)});
  op->pmode = ProjectMode::kDistinct;
  op->attrs = std::move(attrs);
  return op;
}

AlgebraPtr ProjectRename(std::vector<std::pair<Symbol, Symbol>> renames,
                         AlgebraPtr input) {
  AlgebraPtr op = NewOp(OpKind::kProject, {std::move(input)});
  op->pmode = ProjectMode::kKeep;
  // A rename-only projection keeps everything else: encode with empty attrs
  // and non-empty renames.
  op->renames = std::move(renames);
  return op;
}

AlgebraPtr Map(Symbol a, ExprPtr e, AlgebraPtr input) {
  AlgebraPtr op = NewOp(OpKind::kMap, {std::move(input)});
  op->attr = a;
  op->expr = std::move(e);
  return op;
}

AlgebraPtr UnnestMap(Symbol a, ExprPtr e, AlgebraPtr input) {
  AlgebraPtr op = NewOp(OpKind::kUnnestMap, {std::move(input)});
  op->attr = a;
  op->expr = std::move(e);
  op->outer = false;  // XQuery `for` semantics: empty range → no bindings
  return op;
}

AlgebraPtr Unnest(Symbol g, AlgebraPtr input, bool distinct, bool outer) {
  AlgebraPtr op = NewOp(OpKind::kUnnest, {std::move(input)});
  op->attr = g;
  op->distinct = distinct;
  op->outer = outer;
  return op;
}

AlgebraPtr Cross(AlgebraPtr lhs, AlgebraPtr rhs) {
  return NewOp(OpKind::kCross, {std::move(lhs), std::move(rhs)});
}

AlgebraPtr Join(ExprPtr pred, AlgebraPtr lhs, AlgebraPtr rhs) {
  AlgebraPtr op = NewOp(OpKind::kJoin, {std::move(lhs), std::move(rhs)});
  op->pred = std::move(pred);
  return op;
}

AlgebraPtr SemiJoin(ExprPtr pred, AlgebraPtr lhs, AlgebraPtr rhs) {
  AlgebraPtr op = NewOp(OpKind::kSemiJoin, {std::move(lhs), std::move(rhs)});
  op->pred = std::move(pred);
  return op;
}

AlgebraPtr AntiJoin(ExprPtr pred, AlgebraPtr lhs, AlgebraPtr rhs) {
  AlgebraPtr op = NewOp(OpKind::kAntiJoin, {std::move(lhs), std::move(rhs)});
  op->pred = std::move(pred);
  return op;
}

AlgebraPtr OuterJoin(ExprPtr pred, Symbol g, ExprPtr dflt, AlgebraPtr lhs,
                     AlgebraPtr rhs) {
  AlgebraPtr op = NewOp(OpKind::kOuterJoin, {std::move(lhs), std::move(rhs)});
  op->pred = std::move(pred);
  op->attr = g;
  op->expr = std::move(dflt);
  return op;
}

AlgebraPtr GroupUnary(Symbol g, CmpOp theta, std::vector<Symbol> attrs,
                      AggSpec f, AlgebraPtr input) {
  AlgebraPtr op = NewOp(OpKind::kGroupUnary, {std::move(input)});
  op->attr = g;
  op->theta = theta;
  op->left_attrs = attrs;
  op->right_attrs = std::move(attrs);
  op->agg = std::move(f);
  return op;
}

AlgebraPtr GroupBinary(Symbol g, std::vector<Symbol> a1, CmpOp theta,
                       std::vector<Symbol> a2, AggSpec f, AlgebraPtr lhs,
                       AlgebraPtr rhs) {
  AlgebraPtr op = NewOp(OpKind::kGroupBinary, {std::move(lhs), std::move(rhs)});
  op->attr = g;
  op->theta = theta;
  op->left_attrs = std::move(a1);
  op->right_attrs = std::move(a2);
  op->agg = std::move(f);
  return op;
}

AlgebraPtr SortBy(std::vector<Symbol> attrs, AlgebraPtr input) {
  AlgebraPtr op = NewOp(OpKind::kSort, {std::move(input)});
  op->attrs = std::move(attrs);
  return op;
}

AlgebraPtr SortByDir(std::vector<Symbol> attrs, std::vector<uint8_t> desc,
                     AlgebraPtr input) {
  AlgebraPtr op = NewOp(OpKind::kSort, {std::move(input)});
  op->attrs = std::move(attrs);
  op->sort_desc = std::move(desc);
  return op;
}

AlgebraPtr XiSimple(XiProgram commands, AlgebraPtr input) {
  AlgebraPtr op = NewOp(OpKind::kXiSimple, {std::move(input)});
  op->s1 = std::move(commands);
  return op;
}

AlgebraPtr XiGroup(XiProgram s1, std::vector<Symbol> group_attrs, XiProgram s2,
                   XiProgram s3, AlgebraPtr input) {
  AlgebraPtr op = NewOp(OpKind::kXiGroup, {std::move(input)});
  op->s1 = std::move(s1);
  op->s2 = std::move(s2);
  op->s3 = std::move(s3);
  op->attrs = std::move(group_attrs);
  return op;
}

AlgebraPtr ReplaceChild(const AlgebraOp& op, size_t index, AlgebraPtr child) {
  AlgebraPtr copy = std::make_shared<AlgebraOp>(op);
  copy->children[index] = std::move(child);
  return copy;
}

// ---- structural identity ---------------------------------------------

namespace {

size_t Mix(size_t h, size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Hashes kinds, symbols and literals over the whole walk; the remaining
/// fields only break ties, which StructurallyEqual settles.
size_t HashExpr(const ExprPtr& e) {
  if (e == nullptr) return 0;
  size_t h = Mix(Mix(static_cast<size_t>(e->kind) + 1, e->attr.id()),
                 e->literal.Hash());
  h = Mix(h, HashExpr(e->agg.filter));
  if (e->alg != nullptr) h = Mix(h, StructuralHash(*e->alg));
  for (const ExprPtr& c : e->children) h = Mix(h, HashExpr(c));
  return h;
}

bool ExprEqual(const ExprPtr& a, const ExprPtr& b);

bool AggEqual(const AggSpec& a, const AggSpec& b) {
  return a.kind == b.kind && a.project == b.project &&
         ExprEqual(a.filter, b.filter);
}

bool ExprEqual(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->kind != b->kind || a->attr != b->attr || a->cmp != b->cmp ||
      a->fn != b->fn || a->quant != b->quant ||
      a->quant_var != b->quant_var || a->arith != b->arith ||
      a->path.absolute() != b->path.absolute() ||
      a->path.steps() != b->path.steps() ||
      a->literal.kind() != b->literal.kind() ||
      !a->literal.Equals(b->literal) || !AggEqual(a->agg, b->agg) ||
      (a->alg == nullptr) != (b->alg == nullptr) ||
      (a->alg != nullptr && !StructurallyEqual(*a->alg, *b->alg)) ||
      a->children.size() != b->children.size()) {
    return false;
  }
  for (size_t i = 0; i < a->children.size(); ++i) {
    if (!ExprEqual(a->children[i], b->children[i])) return false;
  }
  return true;
}

bool ProgramEqual(const XiProgram& a, const XiProgram& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_literal != b[i].is_literal || a[i].text != b[i].text ||
        !ExprEqual(a[i].expr, b[i].expr)) {
      return false;
    }
  }
  return true;
}

}  // namespace

size_t StructuralHash(const AlgebraOp& op) {
  size_t h = Mix(static_cast<size_t>(op.kind) + 1, op.attr.id());
  for (const AlgebraPtr& c : op.children) h = Mix(h, StructuralHash(*c));
  for (const ExprPtr* e : {&op.pred, &op.expr, &op.agg.filter}) {
    h = Mix(h, HashExpr(*e));
  }
  for (const XiProgram* program : {&op.s1, &op.s2, &op.s3}) {
    for (const XiCommand& c : *program) h = Mix(h, HashExpr(c.expr));
  }
  return h;
}

bool StructurallyEqual(const AlgebraOp& a, const AlgebraOp& b) {
  if (&a == &b) return true;
  if (a.kind != b.kind || a.attr != b.attr || a.pmode != b.pmode ||
      a.attrs != b.attrs || a.renames != b.renames ||
      a.sort_desc != b.sort_desc || a.theta != b.theta ||
      a.left_attrs != b.left_attrs || a.right_attrs != b.right_attrs ||
      a.distinct != b.distinct || a.outer != b.outer ||
      a.cse_id != b.cse_id || a.children.size() != b.children.size() ||
      !ExprEqual(a.pred, b.pred) || !ExprEqual(a.expr, b.expr) ||
      !AggEqual(a.agg, b.agg) || !ProgramEqual(a.s1, b.s1) ||
      !ProgramEqual(a.s2, b.s2) || !ProgramEqual(a.s3, b.s3)) {
    return false;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!StructurallyEqual(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

}  // namespace nalq::nal
