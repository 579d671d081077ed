#include "nal/printer.h"

#include <sstream>

namespace nalq::nal {

namespace {

std::string JoinSymbols(const std::vector<Symbol>& symbols) {
  std::string out;
  bool first = true;
  for (Symbol s : symbols) {
    if (!first) out += ",";
    out += std::string(s.str());
    first = false;
  }
  return out;
}

std::string ProgramString(const XiProgram& program) {
  std::string out;
  bool first = true;
  for (const XiCommand& c : program) {
    if (!first) out += ";";
    if (c.is_literal) {
      out += "\"" + c.text + "\"";
    } else {
      out += c.expr->DebugString();
    }
    first = false;
  }
  return out;
}

}  // namespace

std::string OpHeadline(const AlgebraOp& op) {
  std::ostringstream os;
  switch (op.kind) {
    case OpKind::kSingleton:
      os << "Singleton";
      break;
    case OpKind::kSelect:
      os << "Select[" << op.pred->DebugString() << "]";
      break;
    case OpKind::kProject: {
      switch (op.pmode) {
        case ProjectMode::kKeep:
          os << (op.renames.empty() ? "Project" : "ProjectRename");
          break;
        case ProjectMode::kDrop:
          os << "ProjectDrop";
          break;
        case ProjectMode::kDistinct:
          os << "ProjectDistinct";
          break;
      }
      os << "[" << JoinSymbols(op.attrs);
      for (const auto& [to, from] : op.renames) {
        os << " " << to.str() << ":=" << from.str();
      }
      os << "]";
      break;
    }
    case OpKind::kMap:
      os << "Map[" << op.attr.str() << " := " << op.expr->DebugString() << "]";
      break;
    // The ⊥-tuple flag shows only where it differs from the operator's
    // usual form: Υ drops a tuple whose range is empty, the paper's μ pads
    // it.
    case OpKind::kUnnestMap:
      os << "UnnestMap[" << op.attr.str() << " := " << op.expr->DebugString()
         << (op.outer ? "; outer" : "") << "]";
      break;
    case OpKind::kUnnest:
      os << (op.distinct ? "UnnestD[" : "Unnest[") << op.attr.str()
         << (op.outer ? "" : "; inner") << "]";
      break;
    case OpKind::kCross:
      os << "Cross";
      break;
    case OpKind::kJoin:
      os << "Join[" << op.pred->DebugString() << "]";
      break;
    case OpKind::kSemiJoin:
      os << "SemiJoin[" << op.pred->DebugString() << "]";
      break;
    case OpKind::kAntiJoin:
      os << "AntiJoin[" << op.pred->DebugString() << "]";
      break;
    case OpKind::kOuterJoin:
      os << "OuterJoin[" << op.pred->DebugString() << "; " << op.attr.str()
         << " := " << (op.expr != nullptr ? op.expr->DebugString() : "NULL")
         << "]";
      break;
    case OpKind::kGroupUnary:
      os << "GroupUnary[" << op.attr.str() << "; " << CmpOpName(op.theta)
         << JoinSymbols(op.left_attrs) << "; " << op.agg.DebugString() << "]";
      break;
    case OpKind::kGroupBinary:
      os << "GroupBinary[" << op.attr.str() << "; "
         << JoinSymbols(op.left_attrs) << CmpOpName(op.theta)
         << JoinSymbols(op.right_attrs) << "; " << op.agg.DebugString() << "]";
      break;
    case OpKind::kSort:
      os << "Sort[";
      for (size_t i = 0; i < op.attrs.size(); ++i) {
        if (i != 0) os << ",";
        os << op.attrs[i].str();
        if (i < op.sort_desc.size() && op.sort_desc[i] != 0) os << " desc";
      }
      os << "]";
      break;
    case OpKind::kXiSimple:
      os << "Xi[" << ProgramString(op.s1) << "]";
      break;
    case OpKind::kXiGroup:
      os << "XiGroup[" << ProgramString(op.s1) << " | "
         << JoinSymbols(op.attrs) << "; " << ProgramString(op.s2) << " | "
         << ProgramString(op.s3) << "]";
      break;
  }
  if (op.cse_id >= 0) os << " (cse#" << op.cse_id << ")";
  return os.str();
}

namespace {

void PrintRec(const AlgebraOp& op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += OpHeadline(op);
  *out += '\n';
  for (const AlgebraPtr& c : op.children) {
    PrintRec(*c, depth + 1, out);
  }
  // Also show nested algebra inside subscripts — the whole point of the
  // unnesting story is where these live.
  ForEachSubscript(op, [&](const Expr& e) {
    std::vector<const Expr*> stack = {&e};
    while (!stack.empty()) {
      const Expr* cur = stack.back();
      stack.pop_back();
      if (cur->alg != nullptr) {
        out->append(static_cast<size_t>(depth + 1) * 2, ' ');
        *out += "(nested in subscript)\n";
        PrintRec(*cur->alg, depth + 2, out);
      }
      if (cur->agg.filter != nullptr) stack.push_back(cur->agg.filter.get());
      for (const ExprPtr& c : cur->children) stack.push_back(c.get());
    }
  });
}

}  // namespace

std::string PrintPlan(const AlgebraOp& op) {
  std::string out;
  PrintRec(op, 0, &out);
  return out;
}

}  // namespace nalq::nal
