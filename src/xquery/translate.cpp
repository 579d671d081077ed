#include "xquery/translate.h"

#include <map>
#include <optional>

#include "nal/analysis.h"
#include "xquery/normalize.h"

namespace nalq::xquery {

namespace {

using nal::AggSpec;
using nal::AlgebraPtr;
using nal::ExprPtr;
using nal::Symbol;

/// What the translator knows about a variable: which document/path its
/// values come from (for singleton decisions) — the same facts the rewriter
/// later re-derives from the plan itself.
struct VarInfo {
  bool known = false;
  std::string doc;
  xml::Path path;       // absolute path of the variable's values
  bool distinct = false;
  bool singleton = false;
};

class Translator {
 public:
  explicit Translator(const xml::DtdRegistry* dtds) : dtds_(dtds) {}

  AlgebraPtr TranslateQuery(const AstPtr& query) {
    if (query->kind != AstKind::kFlwr) {
      throw TranslateError("top-level query must be a FLWR expression");
    }
    AlgebraPtr alg = TranslateClauses(*query);
    alg = ApplyOrderBy(*query, std::move(alg));
    if (query->ret == nullptr) {
      throw TranslateError("missing return clause");
    }
    nal::XiProgram program;
    EmitReturn(*query->ret, &program);
    return nal::XiSimple(std::move(program), std::move(alg));
  }

 private:
  [[noreturn]] static void Fail(const std::string& message) {
    throw TranslateError(message);
  }

  // ---- variable bookkeeping ---------------------------------------------

  const VarInfo* Lookup(const std::string& var) const {
    auto it = vars_.find(var);
    return it == vars_.end() ? nullptr : &it->second;
  }

  /// Converts AST steps to an xml::Path (predicates must be gone after
  /// normalization; if any remain the provenance is treated as unknown).
  static std::optional<xml::Path> StepsToPath(
      const std::vector<PathStepAst>& steps) {
    std::vector<xml::Step> out;
    for (const PathStepAst& s : steps) {
      if (s.predicate != nullptr) return std::nullopt;
      xml::Step step;
      step.axis = s.axis;
      step.name = s.name;
      out.push_back(std::move(step));
    }
    return xml::Path(false, std::move(out));
  }

  /// Provenance of a path expression rooted at a known variable.
  VarInfo PathInfo(const Ast& path_ast) const {
    VarInfo info;
    if (path_ast.kind != AstKind::kPathExpr) return info;
    const AstPtr& base = path_ast.children[0];
    VarInfo base_info;
    if (base->kind == AstKind::kVarRef) {
      const VarInfo* known = Lookup(base->name);
      if (known == nullptr || !known->known) return info;
      base_info = *known;
    } else if (base->kind == AstKind::kFnCall &&
               (base->name == "doc" || base->name == "document") &&
               base->children.size() == 1 &&
               base->children[0]->kind == AstKind::kLiteral) {
      base_info.known = true;
      base_info.doc =
          base->children[0]->literal.AsString();
      base_info.path = xml::Path(true, {});
    } else {
      return info;
    }
    std::optional<xml::Path> rel = StepsToPath(path_ast.steps);
    if (!rel.has_value()) return info;
    info.known = true;
    info.doc = base_info.doc;
    info.path = base_info.path.Concat(*rel);
    return info;
  }

  /// DTD-backed singleton check for a path (used to skip the e[a'] binding,
  /// paper Sec. 3: "in case the result of some ei is a singleton").
  bool IsSingletonPath(const VarInfo& base, const Ast& path_ast) const {
    if (!base.known || dtds_ == nullptr) return false;
    const xml::Dtd* dtd = dtds_->Find(base.doc);
    std::optional<xml::Path> rel = StepsToPath(path_ast.steps);
    return dtd != nullptr && rel.has_value() &&
           dtd->SingleNodePath(base.path, *rel, /*exactly_one=*/true);
  }

  // ---- FLWR translation (the binary T function) -------------------------

  AlgebraPtr TranslateClauses(const Ast& flwr) {
    AlgebraPtr alg = nal::Singleton();
    for (const Clause& c : flwr.clauses) {
      switch (c.kind) {
        case Clause::Kind::kLet:
          alg = TranslateLet(c, std::move(alg));
          break;
        case Clause::Kind::kFor:
          alg = TranslateFor(c, std::move(alg));
          break;
        case Clause::Kind::kWhere:
          alg = nal::Select(TranslateScalar(*c.expr), std::move(alg));
          break;
      }
    }
    return alg;
  }

  /// order by (extension): sort keys become fresh χ attributes, the Sort
  /// operator (stable) orders by them, and the keys are projected away.
  AlgebraPtr ApplyOrderBy(const Ast& flwr, AlgebraPtr alg) {
    if (flwr.order_by.empty()) return alg;
    std::vector<Symbol> keys;
    std::vector<uint8_t> desc;
    for (const auto& [key_expr, descending] : flwr.order_by) {
      Symbol key = Symbol::Fresh("sortkey");
      alg = nal::Map(key, TranslateScalar(*key_expr), std::move(alg));
      keys.push_back(key);
      desc.push_back(descending ? 1 : 0);
    }
    alg = nal::SortByDir(keys, std::move(desc), std::move(alg));
    return nal::ProjectDrop(std::move(keys), std::move(alg));
  }

  AlgebraPtr TranslateLet(const Clause& c, AlgebraPtr alg) {
    Symbol var(c.var);
    const Ast& e = *c.expr;
    VarInfo info;
    ExprPtr value;
    if (e.kind == AstKind::kFnCall &&
        (e.name == "doc" || e.name == "document")) {
      value = TranslateScalar(e);
      if (e.children.size() == 1 &&
          e.children[0]->kind == AstKind::kLiteral) {
        info.known = true;
        info.doc = e.children[0]->literal.AsString();
        info.path = xml::Path(true, {});
        info.singleton = true;
      }
    } else if (e.kind == AstKind::kFlwr) {
      auto [nested, result_attr] = TranslateNestedFlwr(e);
      value = nal::MakeAgg(nal::AggProjectItems(result_attr),
                           nal::MakeNestedAlg(std::move(nested)));
    } else if (e.kind == AstKind::kFnCall && IsAggregate(e.name) &&
               e.children.size() == 1 &&
               e.children[0]->kind == AstKind::kFlwr) {
      auto [nested, result_attr] = TranslateNestedFlwr(*e.children[0]);
      value = nal::MakeAgg(AggForFn(e.name, result_attr),
                           nal::MakeNestedAlg(std::move(nested)));
    } else if (e.kind == AstKind::kPathExpr) {
      info = PathInfo(e);
      VarInfo base_info;
      if (e.children[0]->kind == AstKind::kVarRef) {
        const VarInfo* b = Lookup(e.children[0]->name);
        if (b != nullptr) base_info = *b;
      }
      ExprPtr path_expr = TranslateScalar(e);
      if (IsSingletonPath(base_info, e)) {
        info.singleton = true;
        value = std::move(path_expr);
      } else {
        // The paper's e[a'] construction: bind the item sequence as a
        // nested tuple sequence with a fresh inner attribute a'.
        Symbol inner(c.var + "'");
        value = nal::MakeBindTuples(std::move(path_expr), inner);
      }
    } else {
      value = TranslateScalar(e);
    }
    vars_[c.var] = info;
    return nal::Map(var, std::move(value), std::move(alg));
  }

  AlgebraPtr TranslateFor(const Clause& c, AlgebraPtr alg) {
    Symbol var(c.var);
    const Ast& e = *c.expr;
    VarInfo info;
    ExprPtr items;
    if (e.kind == AstKind::kPathExpr) {
      info = PathInfo(e);
      items = TranslateScalar(e);
    } else if (e.kind == AstKind::kFnCall && e.name == "distinct-values" &&
               e.children.size() == 1) {
      if (e.children[0]->kind == AstKind::kPathExpr) {
        info = PathInfo(*e.children[0]);
        info.distinct = true;
      }
      items = TranslateScalar(e);
    } else if (e.kind == AstKind::kFlwr) {
      auto [nested, result_attr] = TranslateNestedFlwr(e);
      items = nal::MakeAgg(nal::AggProjectItems(result_attr),
                           nal::MakeNestedAlg(std::move(nested)));
    } else {
      items = TranslateScalar(e);
    }
    vars_[c.var] = info;
    return nal::UnnestMap(var, std::move(items), std::move(alg));
  }

  /// Translates a nested FLWR (no result construction): returns the algebra
  /// and the attribute holding the return values.
  std::pair<AlgebraPtr, Symbol> TranslateNestedFlwr(const Ast& flwr) {
    if (flwr.kind != AstKind::kFlwr) Fail("expected nested FLWR");
    AlgebraPtr alg = TranslateClauses(flwr);
    if (flwr.ret == nullptr || flwr.ret->kind != AstKind::kVarRef) {
      Fail(
          "nested query blocks must return a variable after normalization; "
          "got: " +
          (flwr.ret != nullptr ? flwr.ret->ToString() : "()"));
    }
    return {std::move(alg), Symbol(flwr.ret->name)};
  }

  // ---- scalar translation (the unary T function) -------------------------

  static bool IsAggregate(const std::string& name) {
    return name == "count" || name == "min" || name == "max" ||
           name == "sum" || name == "avg";
  }

  static AggSpec AggForFn(const std::string& name, Symbol input) {
    if (name == "count") return nal::AggCount();
    if (name == "min") return nal::AggOf(AggSpec::Kind::kMin, input);
    if (name == "max") return nal::AggOf(AggSpec::Kind::kMax, input);
    if (name == "sum") return nal::AggOf(AggSpec::Kind::kSum, input);
    return nal::AggOf(AggSpec::Kind::kAvg, input);
  }

  ExprPtr TranslateScalar(const Ast& e) {
    switch (e.kind) {
      case AstKind::kLiteral:
        return nal::MakeConst(e.literal);
      case AstKind::kVarRef:
        return nal::MakeAttrRef(Symbol(e.name));
      case AstKind::kContextRef:
        Fail("unresolved context item ('.') — normalization incomplete");
      case AstKind::kCmp:
        return nal::MakeCmp(e.cmp, TranslateScalar(*e.children[0]),
                            TranslateScalar(*e.children[1]));
      case AstKind::kAnd:
        return nal::MakeAnd(TranslateScalar(*e.children[0]),
                            TranslateScalar(*e.children[1]));
      case AstKind::kOr:
        return nal::MakeOr(TranslateScalar(*e.children[0]),
                           TranslateScalar(*e.children[1]));
      case AstKind::kArith: {
        nal::ArithOp op = e.name == "+"     ? nal::ArithOp::kAdd
                          : e.name == "-"   ? nal::ArithOp::kSub
                          : e.name == "*"   ? nal::ArithOp::kMul
                          : e.name == "div" ? nal::ArithOp::kDiv
                                            : nal::ArithOp::kMod;
        return nal::MakeArith(op, TranslateScalar(*e.children[0]),
                              TranslateScalar(*e.children[1]));
      }
      case AstKind::kCond:
        return nal::MakeCond(TranslateScalar(*e.children[0]),
                             TranslateScalar(*e.children[1]),
                             TranslateScalar(*e.children[2]));
      case AstKind::kPathExpr: {
        std::optional<xml::Path> rel = StepsToPath(e.steps);
        if (!rel.has_value()) {
          Fail("path predicates must be normalized away before translation: " +
               e.ToString());
        }
        return nal::MakePath(TranslateScalar(*e.children[0]), *rel);
      }
      case AstKind::kFnCall: {
        // Aggregates / existence tests over nested query blocks become
        // nested algebraic expressions.
        if (e.children.size() == 1 &&
            e.children[0]->kind == AstKind::kFlwr) {
          auto [nested, result_attr] = TranslateNestedFlwr(*e.children[0]);
          if (IsAggregate(e.name)) {
            return nal::MakeAgg(AggForFn(e.name, result_attr),
                                nal::MakeNestedAlg(std::move(nested)));
          }
          if (e.name == "exists") {
            AlgebraPtr range = nal::ProjectKeep({result_attr}, nested);
            return nal::MakeQuant(nal::QuantKind::kSome,
                                  Symbol::Fresh("ex"), std::move(range),
                                  nal::MakeConst(nal::Value(true)));
          }
          if (e.name == "empty") {
            AlgebraPtr range = nal::ProjectKeep({result_attr}, nested);
            return nal::MakeQuant(nal::QuantKind::kEvery,
                                  Symbol::Fresh("em"), std::move(range),
                                  nal::MakeConst(nal::Value(false)));
          }
          if (e.name == "distinct-values") {
            return nal::MakeFnCall(
                "distinct-values",
                {nal::MakeAgg(nal::AggProjectItems(result_attr),
                              nal::MakeNestedAlg(std::move(nested)))});
          }
          Fail("unsupported function over nested FLWR: " + e.name);
        }
        std::vector<ExprPtr> args;
        args.reserve(e.children.size());
        for (const AstPtr& c : e.children) args.push_back(TranslateScalar(*c));
        return nal::MakeFnCall(e.name, std::move(args));
      }
      case AstKind::kQuantified:
        return TranslateQuantifier(e);
      case AstKind::kFlwr:
        Fail("nested FLWR in scalar position — normalization incomplete: " +
             e.ToString());
      case AstKind::kElementCtor:
        Fail("element constructors are only supported in return clauses");
    }
    Fail("unhandled AST node");
  }

  ExprPtr TranslateQuantifier(const Ast& q) {
    if (q.range == nullptr || q.range->kind != AstKind::kFlwr) {
      Fail("quantifier range must be a FLWR after normalization");
    }
    auto [nested, result_attr] = TranslateNestedFlwr(*q.range);
    Symbol var(q.qvar);
    ExprPtr pred = TranslateScalar(*q.satisfies);
    // Move correlated satisfies-conjuncts into the range (paper Sec. 5.3:
    // "We can move the correlation predicate into the range expression").
    nal::SymbolSet range_attrs = nal::OutputAttrs(*nested).attrs;
    std::vector<ExprPtr> conjuncts;
    std::vector<ExprPtr> keep;
    FlattenAnd(pred, &conjuncts);
    AlgebraPtr range = nested;
    for (ExprPtr& conj : conjuncts) {
      std::vector<Symbol> refs;
      nal::CollectFreeAttrs(*conj, &refs);
      bool mentions_var = false;
      bool mentions_outer = false;
      for (Symbol s : refs) {
        if (s == var) {
          mentions_var = true;
        } else if (range_attrs.count(s) == 0) {
          mentions_outer = true;
        }
      }
      if (mentions_var && mentions_outer) {
        range = nal::Select(nal::SubstituteAttr(conj, var, result_attr),
                            std::move(range));
      } else {
        keep.push_back(conj);
      }
    }
    ExprPtr remaining;
    for (ExprPtr& k : keep) {
      remaining = remaining == nullptr ? k : nal::MakeAnd(remaining, k);
    }
    if (remaining == nullptr) remaining = nal::MakeConst(nal::Value(true));
    range = nal::ProjectKeep({result_attr}, std::move(range));
    return nal::MakeQuant(q.quant, var, std::move(range),
                          std::move(remaining));
  }

  static void FlattenAnd(const ExprPtr& e, std::vector<ExprPtr>* out) {
    if (e->kind == nal::ExprKind::kAnd) {
      FlattenAnd(e->children[0], out);
      FlattenAnd(e->children[1], out);
    } else {
      out->push_back(e);
    }
  }

  // ---- result construction (the C function) ------------------------------

  void EmitReturn(const Ast& ret, nal::XiProgram* program) {
    switch (ret.kind) {
      case AstKind::kVarRef:
        program->push_back(nal::XiCommand::Var(Symbol(ret.name)));
        return;
      case AstKind::kElementCtor: {
        std::string open = "<" + ret.tag;
        for (const auto& [attr_name, parts] : ret.attributes) {
          open += " " + attr_name + "=\"";
          for (const CtorPart& p : parts) {
            if (p.is_literal) {
              open += p.text;
            } else {
              program->push_back(nal::XiCommand::Literal(open));
              open.clear();
              program->push_back(
                  nal::XiCommand::Eval(TranslateScalar(*p.expr)));
            }
          }
          open += "\"";
        }
        open += ">";
        program->push_back(nal::XiCommand::Literal(open));
        for (const CtorPart& p : ret.content) {
          if (p.is_literal) {
            program->push_back(nal::XiCommand::Literal(p.text));
          } else if (p.expr->kind == AstKind::kElementCtor) {
            EmitReturn(*p.expr, program);
          } else if (p.expr->kind == AstKind::kVarRef) {
            program->push_back(nal::XiCommand::Var(Symbol(p.expr->name)));
          } else {
            program->push_back(nal::XiCommand::Eval(TranslateScalar(*p.expr)));
          }
        }
        program->push_back(nal::XiCommand::Literal("</" + ret.tag + ">"));
        return;
      }
      default:
        program->push_back(nal::XiCommand::Eval(TranslateScalar(ret)));
        return;
    }
  }

  const xml::DtdRegistry* dtds_;
  std::map<std::string, VarInfo> vars_;
};

}  // namespace

nal::AlgebraPtr Translate(const AstPtr& normalized_query,
                          const xml::DtdRegistry* dtds) {
  return Translator(dtds).TranslateQuery(normalized_query);
}

}  // namespace nalq::xquery
