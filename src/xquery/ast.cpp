#include "xquery/ast.h"

namespace nalq::xquery {

std::string Ast::ToString() const {
  switch (kind) {
    case AstKind::kLiteral:
      return literal.DebugString();
    case AstKind::kVarRef:
      return "$" + name;
    case AstKind::kContextRef:
      return ".";
    case AstKind::kCmp:
      return children[0]->ToString() + " " +
             std::string(nal::CmpOpName(cmp)) + " " + children[1]->ToString();
    case AstKind::kAnd:
      return "(" + children[0]->ToString() + " and " +
             children[1]->ToString() + ")";
    case AstKind::kOr:
      return "(" + children[0]->ToString() + " or " + children[1]->ToString() +
             ")";
    case AstKind::kFnCall: {
      std::string out = name + "(";
      bool first = true;
      for (const AstPtr& c : children) {
        if (!first) out += ", ";
        out += c->ToString();
        first = false;
      }
      return out + ")";
    }
    case AstKind::kPathExpr: {
      std::string out = children[0]->kind == AstKind::kContextRef
                            ? ""
                            : children[0]->ToString();
      for (const PathStepAst& s : steps) {
        out += s.axis == xml::Axis::kDescendant ? "//" : "/";
        if (s.axis == xml::Axis::kAttribute) out += "@";
        out += s.name;
        if (s.predicate != nullptr) out += "[" + s.predicate->ToString() + "]";
      }
      return out;
    }
    case AstKind::kQuantified:
      return std::string(quant == nal::QuantKind::kSome ? "some" : "every") +
             " $" + qvar + " in " + range->ToString() + " satisfies " +
             satisfies->ToString();
    case AstKind::kArith:
      return "(" + children[0]->ToString() + " " + name + " " +
             children[1]->ToString() + ")";
    case AstKind::kCond:
      return "if (" + children[0]->ToString() + ") then " +
             children[1]->ToString() + " else " + children[2]->ToString();
    case AstKind::kFlwr: {
      std::string out;
      for (const Clause& c : clauses) {
        switch (c.kind) {
          case Clause::Kind::kFor:
            out += "for $" + c.var + " in " + c.expr->ToString() + " ";
            break;
          case Clause::Kind::kLet:
            out += "let $" + c.var + " := " + c.expr->ToString() + " ";
            break;
          case Clause::Kind::kWhere:
            out += "where " + c.expr->ToString() + " ";
            break;
        }
      }
      if (!order_by.empty()) {
        out += "order by ";
        bool first = true;
        for (const auto& [key, desc] : order_by) {
          if (!first) out += ", ";
          out += key->ToString();
          if (desc) out += " descending";
          first = false;
        }
        out += " ";
      }
      out += "return " + (ret != nullptr ? ret->ToString() : "()");
      return out;
    }
    case AstKind::kElementCtor: {
      std::string out = "<" + tag;
      for (const auto& [attr_name, parts] : attributes) {
        out += " " + attr_name + "=\"";
        for (const CtorPart& p : parts) {
          out += p.is_literal ? p.text : "{" + p.expr->ToString() + "}";
        }
        out += "\"";
      }
      out += ">";
      for (const CtorPart& p : content) {
        out += p.is_literal ? p.text : "{ " + p.expr->ToString() + " }";
      }
      return out + "</" + tag + ">";
    }
  }
  return "?";
}

AstPtr MakeVarRef(std::string name) {
  auto out = std::make_shared<Ast>();
  out->kind = AstKind::kVarRef;
  out->name = std::move(name);
  return out;
}

AstPtr MakeLiteral(nal::Value v) {
  auto out = std::make_shared<Ast>();
  out->kind = AstKind::kLiteral;
  out->literal = std::move(v);
  return out;
}

AstPtr MakeContextRef() {
  auto out = std::make_shared<Ast>();
  out->kind = AstKind::kContextRef;
  return out;
}

AstPtr MakeCmpAst(nal::CmpOp op, AstPtr lhs, AstPtr rhs) {
  auto out = std::make_shared<Ast>();
  out->kind = AstKind::kCmp;
  out->cmp = op;
  out->children = {std::move(lhs), std::move(rhs)};
  return out;
}

AstPtr MakeAndAst(AstPtr lhs, AstPtr rhs) {
  auto out = std::make_shared<Ast>();
  out->kind = AstKind::kAnd;
  out->children = {std::move(lhs), std::move(rhs)};
  return out;
}

AstPtr MakeOrAst(AstPtr lhs, AstPtr rhs) {
  auto out = std::make_shared<Ast>();
  out->kind = AstKind::kOr;
  out->children = {std::move(lhs), std::move(rhs)};
  return out;
}

AstPtr MakeFnCallAst(std::string name, std::vector<AstPtr> args) {
  auto out = std::make_shared<Ast>();
  out->kind = AstKind::kFnCall;
  out->name = std::move(name);
  out->children = std::move(args);
  return out;
}

AstPtr MakePathAst(AstPtr base, std::vector<PathStepAst> steps) {
  auto out = std::make_shared<Ast>();
  out->kind = AstKind::kPathExpr;
  out->children = {std::move(base)};
  out->steps = std::move(steps);
  return out;
}

}  // namespace nalq::xquery
