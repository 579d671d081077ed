#include "xquery/normalize.h"

#include <algorithm>
#include <atomic>
#include <functional>

namespace nalq::xquery {

namespace {

/// Copies `node` with every direct sub-AST replaced by `fn(sub-AST)`, in
/// source order (the return before the order by keys).
template <typename Fn>
AstPtr MapChildren(const AstPtr& node, const Fn& fn) {
  AstPtr copy = std::make_shared<Ast>(*node);
  for (AstPtr& c : copy->children) c = fn(c);
  for (PathStepAst& s : copy->steps) {
    if (s.predicate != nullptr) s.predicate = fn(s.predicate);
  }
  for (Clause& c : copy->clauses) {
    if (c.expr != nullptr) c.expr = fn(c.expr);
  }
  if (copy->ret != nullptr) copy->ret = fn(copy->ret);
  for (auto& [key, desc] : copy->order_by) key = fn(key);
  if (copy->range != nullptr) copy->range = fn(copy->range);
  if (copy->satisfies != nullptr) copy->satisfies = fn(copy->satisfies);
  for (auto& [name, parts] : copy->attributes) {
    for (CtorPart& p : parts) {
      if (p.expr != nullptr) p.expr = fn(p.expr);
    }
  }
  for (CtorPart& p : copy->content) {
    if (p.expr != nullptr) p.expr = fn(p.expr);
  }
  return copy;
}

/// Applies `fn` to every sub-AST bottom-up and returns the rebuilt tree.
AstPtr Transform(const AstPtr& node,
                 const std::function<AstPtr(const AstPtr&)>& fn) {
  return fn(MapChildren(
      node, [&fn](const AstPtr& c) { return Transform(c, fn); }));
}

bool IsAggregateFn(const std::string& name) {
  return name == "count" || name == "min" || name == "max" || name == "sum" ||
         name == "avg";
}

bool ContainsFlwrOrPredicatePath(const AstPtr& e) {
  if (e->kind == AstKind::kFlwr) return true;
  if (e->kind == AstKind::kPathExpr) {
    for (const PathStepAst& s : e->steps) {
      if (s.predicate != nullptr) return true;
    }
  }
  for (const AstPtr& c : e->children) {
    if (ContainsFlwrOrPredicatePath(c)) return true;
  }
  return false;
}

/// Splits a conjunction into conjuncts.
void SplitConjuncts(const AstPtr& e, std::vector<AstPtr>* out) {
  if (e->kind == AstKind::kAnd) {
    SplitConjuncts(e->children[0], out);
    SplitConjuncts(e->children[1], out);
  } else {
    out->push_back(e);
  }
}

AstPtr JoinConjuncts(const std::vector<AstPtr>& conjuncts) {
  AstPtr out;
  for (const AstPtr& c : conjuncts) {
    out = out == nullptr ? c : MakeAndAst(out, c);
  }
  return out;
}

/// Does `e` reference variable `var` (not counting rebinding — the subset
/// has no shadowing in practice)?
bool ReferencesVar(const AstPtr& e, const std::string& var) {
  if (e->kind == AstKind::kVarRef && e->name == var) return true;
  for (const AstPtr& c : e->children) {
    if (ReferencesVar(c, var)) return true;
  }
  for (const PathStepAst& s : e->steps) {
    if (s.predicate != nullptr && ReferencesVar(s.predicate, var)) return true;
  }
  for (const Clause& c : e->clauses) {
    if (c.expr != nullptr && ReferencesVar(c.expr, var)) return true;
  }
  if (e->ret != nullptr && ReferencesVar(e->ret, var)) return true;
  if (e->range != nullptr && ReferencesVar(e->range, var)) return true;
  if (e->satisfies != nullptr && ReferencesVar(e->satisfies, var)) return true;
  for (const auto& [name, parts] : e->attributes) {
    for (const CtorPart& p : parts) {
      if (p.expr != nullptr && ReferencesVar(p.expr, var)) return true;
    }
  }
  for (const CtorPart& p : e->content) {
    if (p.expr != nullptr && ReferencesVar(p.expr, var)) return true;
  }
  return false;
}

}  // namespace

std::string FreshVar(const std::string& prefix) {
  static std::atomic<uint64_t> counter{0};
  return prefix + "_n" + std::to_string(counter.fetch_add(1));
}

namespace {

/// Substitutes every reference to $var with (a clone of) `replacement`.
AstPtr SubstituteVar(const AstPtr& e, const std::string& var,
                     const AstPtr& replacement) {
  return Transform(e, [&](const AstPtr& node) -> AstPtr {
    if (node->kind == AstKind::kVarRef && node->name == var) {
      return replacement->Clone();
    }
    return node;
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Pass 0: inline doc()/document() lets.
//
// The paper replicates the χ_{d:doc(..)} operator into each nested query
// block (e.g. Sec. 5.4's e2 re-binds d1), which keeps nested blocks free of
// outer variables (condition F(e2) ∩ A(e1) = ∅). Inlining the doc variable
// achieves the same decoupling.
// ---------------------------------------------------------------------------

AstPtr InlineDocLets(const AstPtr& query) {
  return Transform(query, [](const AstPtr& node) -> AstPtr {
    if (node->kind != AstKind::kFlwr) return node;
    AstPtr flwr = std::make_shared<Ast>(*node);
    for (size_t i = 0; i < flwr->clauses.size();) {
      const Clause& c = flwr->clauses[i];
      bool is_doc_let =
          c.kind == Clause::Kind::kLet && c.expr != nullptr &&
          c.expr->kind == AstKind::kFnCall &&
          (c.expr->name == "doc" || c.expr->name == "document") &&
          c.expr->children.size() == 1 &&
          c.expr->children[0]->kind == AstKind::kLiteral;
      if (!is_doc_let) {
        ++i;
        continue;
      }
      std::string var = c.var;
      AstPtr replacement = c.expr;
      flwr->clauses.erase(flwr->clauses.begin() + static_cast<long>(i));
      for (size_t j = i; j < flwr->clauses.size(); ++j) {
        if (flwr->clauses[j].expr != nullptr) {
          flwr->clauses[j].expr =
              SubstituteVar(flwr->clauses[j].expr, var, replacement);
        }
      }
      if (flwr->ret != nullptr) {
        flwr->ret = SubstituteVar(flwr->ret, var, replacement);
      }
    }
    return flwr;
  });
}

// ---------------------------------------------------------------------------
// Pass 2b: bind relative-path comparison operands in where clauses
// (the paper's "let $a2 := $b2/author" of Sec. 5.1's normalization).
//
// An operand rooted at a variable of an *enclosing* FLWR is bound in that
// FLWR, just before the clause (or the return) that contains the nested
// block, and bound once there however often the block uses it. The
// correlation then compares an attribute of the outer expression e1 with
// one of the block e2, and the rest of the block is free of e1
// (F(e2) ∩ A(e1) = ∅): the shape the unnesting equivalences match. Bound
// inside the block, `$b1/publisher` would hide the correlation in a χ of
// e2. Paths are pure and total (a path over a non-node is empty), so one
// evaluation per outer binding gives what one per inner binding gave.
// Operands rooted at the block's own variable, a quantifier variable or no
// binder at all keep the local binding.
// ---------------------------------------------------------------------------

namespace {

/// A binder enclosing the node being walked: a FLWR or a quantifier.
struct BindScope {
  bool quantifier = false;
  /// The quantifier's variable, or the FLWR's for/let variables bound
  /// before the clause being walked.
  std::vector<std::string> vars;
  /// FLWR only: the clause being walked (clauses.size() while walking the
  /// return and the order by), the lets to insert before each clause, and
  /// the paths already bound here (rendered text, root, bound variable).
  size_t clause = 0;
  std::vector<std::vector<Clause>> lets;
  struct Bound {
    std::string text;
    std::string root;
    std::string var;
  };
  std::vector<Bound> bound;

  bool Binds(const std::string& var) const {
    return std::find(vars.begin(), vars.end(), var) != vars.end();
  }
};

class WherePathBinder {
 public:
  AstPtr Walk(const AstPtr& node) {
    if (node->kind == AstKind::kFlwr) return WalkFlwr(*node);
    if (node->kind == AstKind::kQuantified) {
      AstPtr q = std::make_shared<Ast>(*node);
      if (q->range != nullptr) q->range = Walk(q->range);
      BindScope scope;
      scope.quantifier = true;
      scope.vars.push_back(q->qvar);
      scopes_.push_back(std::move(scope));
      if (q->satisfies != nullptr) q->satisfies = Walk(q->satisfies);
      scopes_.pop_back();
      return q;
    }
    return MapChildren(node, [this](const AstPtr& c) { return Walk(c); });
  }

 private:
  AstPtr WalkFlwr(const Ast& node) {
    AstPtr flwr = std::make_shared<Ast>(node);
    const size_t n = flwr->clauses.size();
    scopes_.emplace_back();
    scopes_.back().lets.resize(n + 1);
    for (size_t i = 0; i < n; ++i) {
      scopes_.back().clause = i;
      Clause& c = flwr->clauses[i];
      if (c.expr != nullptr) c.expr = Walk(c.expr);
      if (c.kind != Clause::Kind::kWhere) Rebind(&scopes_.back(), c.var);
    }
    scopes_.back().clause = n;
    if (flwr->ret != nullptr) flwr->ret = Walk(flwr->ret);
    for (auto& [key, desc] : flwr->order_by) key = Walk(key);
    BindScope scope = std::move(scopes_.back());
    scopes_.pop_back();

    std::vector<std::string> local;  // this FLWR's variables bound so far
    std::vector<Clause> out;
    for (size_t i = 0; i < n; ++i) {
      for (Clause& let : scope.lets[i]) out.push_back(std::move(let));
      Clause& c = flwr->clauses[i];
      if (c.kind == Clause::Kind::kWhere) {
        c.expr = BindOperands(c.expr, local, &out);
      } else {
        local.push_back(c.var);
      }
      out.push_back(std::move(c));
    }
    for (Clause& let : scope.lets[n]) out.push_back(std::move(let));
    flwr->clauses = std::move(out);
    return flwr;
  }

  /// A for/let clause binds `var`: it is in scope from the next clause on,
  /// and a path bound earlier from a shadowed `var` is stale.
  static void Rebind(BindScope* scope, const std::string& var) {
    scope->vars.push_back(var);
    std::erase_if(scope->bound, [&](const BindScope::Bound& b) {
      return b.root == var;
    });
  }

  /// The enclosing FLWR that binds `var` innermost, or null when the
  /// innermost binder is this FLWR (`local`), a quantifier, or nothing.
  BindScope* HoistTarget(const std::string& var,
                         const std::vector<std::string>& local) {
    if (std::find(local.begin(), local.end(), var) != local.end()) {
      return nullptr;
    }
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->Binds(var)) return it->quantifier ? nullptr : &*it;
    }
    return nullptr;
  }

  /// Binds the path operands of `where`'s comparison conjuncts: hoisted
  /// into the enclosing FLWR that binds their root, or as a let appended to
  /// `out` (just before the where).
  AstPtr BindOperands(const AstPtr& where,
                      const std::vector<std::string>& local,
                      std::vector<Clause>* out) {
    std::vector<AstPtr> conjuncts;
    SplitConjuncts(where, &conjuncts);
    for (AstPtr& conj : conjuncts) {
      if (conj->kind != AstKind::kCmp) continue;
      for (int side = 0; side < 2; ++side) {
        const AstPtr& operand = conj->children[side];
        if (operand->kind != AstKind::kPathExpr ||
            operand->children[0]->kind != AstKind::kVarRef) {
          continue;
        }
        BindScope* target = HoistTarget(operand->children[0]->name, local);
        std::string var = target != nullptr ? Hoist(target, operand)
                                            : BindLet(operand, out);
        AstPtr copy = std::make_shared<Ast>(*conj);
        copy->children[side] = MakeVarRef(var);
        conj = copy;
      }
    }
    return JoinConjuncts(conjuncts);
  }

  static std::string Hoist(BindScope* target, const AstPtr& path) {
    std::string text = path->ToString();
    for (const BindScope::Bound& b : target->bound) {
      if (b.text == text) return b.var;
    }
    std::string var = BindLet(path, &target->lets[target->clause]);
    target->bound.push_back({std::move(text), path->children[0]->name, var});
    return var;
  }

  static std::string BindLet(const AstPtr& path, std::vector<Clause>* out) {
    Clause let;
    let.kind = Clause::Kind::kLet;
    let.var = FreshVar(path->steps.empty() ? std::string("p")
                                           : path->steps.back().name);
    let.expr = path;
    out->push_back(let);
    return let.var;
  }

  std::vector<BindScope> scopes_;
};

}  // namespace

AstPtr BindWherePaths(const AstPtr& query) {
  return WherePathBinder().Walk(query);
}

AstPtr RebaseContext(const AstPtr& e, const std::string& var) {
  return Transform(e, [&](const AstPtr& node) -> AstPtr {
    if (node->kind == AstKind::kContextRef) return MakeVarRef(var);
    if (node->kind == AstKind::kPathExpr &&
        node->children[0]->kind == AstKind::kContextRef) {
      AstPtr copy = std::make_shared<Ast>(*node);
      copy->children[0] = MakeVarRef(var);
      return copy;
    }
    return node;
  });
}

// ---------------------------------------------------------------------------
// Pass 1: for $x in P[pred]  →  for $x in P where pred[. := $x]
// ---------------------------------------------------------------------------

AstPtr HoistPathPredicates(const AstPtr& query) {
  return Transform(query, [](const AstPtr& node) -> AstPtr {
    if (node->kind != AstKind::kFlwr) return node;
    AstPtr flwr = std::make_shared<Ast>(*node);
    std::vector<Clause> out;
    for (const Clause& c : flwr->clauses) {
      if (c.kind != Clause::Kind::kFor || c.expr == nullptr ||
          c.expr->kind != AstKind::kPathExpr) {
        out.push_back(c);
        continue;
      }
      // Strip predicates from the trailing step(s); earlier-step predicates
      // would change which subtrees are visited and are hoisted per-step via
      // fresh for variables only when they are on the final step — the
      // queries in scope only use final-step predicates.
      AstPtr range = c.expr->Clone();
      std::vector<AstPtr> hoisted;
      if (!range->steps.empty() && range->steps.back().predicate != nullptr) {
        AstPtr pred = range->steps.back().predicate;
        range->steps.back().predicate = nullptr;
        hoisted.push_back(RebaseContext(pred, c.var));
      }
      Clause for_clause = c;
      for_clause.expr = range;
      out.push_back(std::move(for_clause));
      for (const AstPtr& pred : hoisted) {
        Clause where;
        where.kind = Clause::Kind::kWhere;
        where.expr = pred;
        out.push_back(std::move(where));
      }
    }
    flwr->clauses = std::move(out);
    return flwr;
  });
}

// ---------------------------------------------------------------------------
// Pass 2: quantifier normalization (paper steps 1/2; the Q5 rewrites)
// ---------------------------------------------------------------------------

namespace {

/// Rewrites comparisons in the range FLWR's where clauses whose operand is a
/// relative path from one of its own variables into an explicit author-style
/// unnest:
///   where $a1 = $b3/author  →  for $a3 in $b3/author where $a1 = $a3
/// An operand rooted at a variable this FLWR does not bind stays a path, so
/// that BindWherePaths binds it in the enclosing FLWR.
void UnnestWherePaths(Ast* flwr) {
  std::vector<Clause> out;
  std::vector<std::string> bound;
  for (Clause& c : flwr->clauses) {
    if (c.kind != Clause::Kind::kWhere) {
      bound.push_back(c.var);
      out.push_back(std::move(c));
      continue;
    }
    std::vector<AstPtr> conjuncts;
    SplitConjuncts(c.expr, &conjuncts);
    std::vector<AstPtr> rewritten;
    for (AstPtr& conj : conjuncts) {
      if (conj->kind != AstKind::kCmp) {
        rewritten.push_back(conj);
        continue;
      }
      for (int side = 0; side < 2; ++side) {
        AstPtr operand = conj->children[side];
        if (operand->kind == AstKind::kPathExpr &&
            operand->children[0]->kind == AstKind::kVarRef &&
            std::find(bound.begin(), bound.end(),
                      operand->children[0]->name) != bound.end() &&
            !operand->steps.empty() &&
            operand->steps.back().axis != xml::Axis::kAttribute) {
          std::string fresh = FreshVar(operand->steps.back().name);
          Clause unnest;
          unnest.kind = Clause::Kind::kFor;
          unnest.var = fresh;
          unnest.expr = operand;
          out.push_back(std::move(unnest));
          AstPtr copy = std::make_shared<Ast>(*conj);
          copy->children[side] = MakeVarRef(fresh);
          conj = copy;
        }
      }
      rewritten.push_back(conj);
    }
    Clause where;
    where.kind = Clause::Kind::kWhere;
    where.expr = JoinConjuncts(rewritten);
    out.push_back(std::move(where));
  }
  flwr->clauses = std::move(out);
}

/// Collects the distinct paths through which `pred` references $var; returns
/// false if $var is also referenced directly.
bool CollectVarPaths(const AstPtr& pred, const std::string& var,
                     std::vector<AstPtr>* paths) {
  if (pred->kind == AstKind::kVarRef && pred->name == var) return false;
  if (pred->kind == AstKind::kPathExpr &&
      pred->children[0]->kind == AstKind::kVarRef &&
      pred->children[0]->name == var) {
    for (const AstPtr& seen : *paths) {
      if (seen->ToString() == pred->ToString()) return true;
    }
    paths->push_back(pred);
    return true;
  }
  for (const AstPtr& c : pred->children) {
    if (!CollectVarPaths(c, var, paths)) return false;
  }
  return true;
}

AstPtr ReplacePath(const AstPtr& e, const AstPtr& path,
                   const std::string& var) {
  std::string needle = path->ToString();
  return Transform(e, [&](const AstPtr& node) -> AstPtr {
    if (node->kind == AstKind::kPathExpr && node->ToString() == needle) {
      return MakeVarRef(var);
    }
    return node;
  });
}

}  // namespace

AstPtr NormalizeQuantifiers(const AstPtr& query) {
  return Transform(query, [](const AstPtr& node) -> AstPtr {
    if (node->kind != AstKind::kQuantified) return node;
    AstPtr q = std::make_shared<Ast>(*node);
    // (a) Embed the range into a FLWR.
    AstPtr range = q->range;
    AstPtr flwr;
    if (range->kind == AstKind::kFlwr) {
      flwr = range->Clone();
    } else {
      flwr = std::make_shared<Ast>();
      flwr->kind = AstKind::kFlwr;
      Clause for_clause;
      for_clause.kind = Clause::Kind::kFor;
      for_clause.var = q->qvar;
      for_clause.expr = range;
      flwr->clauses.push_back(std::move(for_clause));
      flwr->ret = MakeVarRef(q->qvar);
    }
    // (b) Hoist range-path predicates (the for-clause may carry [..]).
    flwr = HoistPathPredicates(flwr);
    // (c) Unnest relative paths in the range's where clauses.
    UnnestWherePaths(flwr.get());
    // (d) Change the range variable when the satisfies clause accesses the
    //     bound variable through exactly one path (Q5: $b2/@year).
    std::vector<AstPtr> paths;
    bool only_paths = CollectVarPaths(q->satisfies, q->qvar, &paths);
    if (only_paths && paths.size() == 1 && flwr->ret != nullptr &&
        flwr->ret->kind == AstKind::kVarRef) {
      const std::string range_var = flwr->ret->name;
      // The path is rooted at the quantifier variable; re-root it at the
      // range's return variable.
      AstPtr rebased = paths[0]->Clone();
      rebased->children[0] = MakeVarRef(range_var);
      std::string fresh = FreshVar("q");
      Clause value_clause;
      value_clause.kind = Clause::Kind::kFor;
      value_clause.var = fresh;
      value_clause.expr = rebased;
      flwr->clauses.push_back(std::move(value_clause));
      flwr->ret = MakeVarRef(fresh);
      q->satisfies = ReplacePath(q->satisfies, paths[0], q->qvar);
    }
    q->range = flwr;
    return q;
  });
}

namespace {

/// Converts a (possibly predicated) path argument into an equivalent FLWR:
///   $d//bidtuple[itemno = $i]  →
///   for $f in $d//bidtuple where $f/itemno = $i return $f
AstPtr PathArgToFlwr(const AstPtr& arg) {
  auto sub = std::make_shared<Ast>();
  sub->kind = AstKind::kFlwr;
  std::string fresh = FreshVar(
      arg->steps.empty() ? std::string("f") : arg->steps.back().name);
  Clause for_clause;
  for_clause.kind = Clause::Kind::kFor;
  for_clause.var = fresh;
  for_clause.expr = arg;
  sub->clauses.push_back(std::move(for_clause));
  sub->ret = MakeVarRef(fresh);
  AstPtr hoisted = HoistPathPredicates(sub);
  UnnestWherePaths(hoisted.get());
  return hoisted;
}

bool PathHasPredicate(const AstPtr& e) {
  if (e->kind != AstKind::kPathExpr) return false;
  for (const PathStepAst& s : e->steps) {
    if (s.predicate != nullptr) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pass 2c: aggregate arguments that are predicated paths become FLWRs,
// wherever they occur (let clauses, where clauses, return parts).
// ---------------------------------------------------------------------------

AstPtr NormalizeAggregateArgs(const AstPtr& query) {
  return Transform(query, [](const AstPtr& node) -> AstPtr {
    if (node->kind != AstKind::kFnCall || !IsAggregateFn(node->name) ||
        node->children.size() != 1) {
      return node;
    }
    if (!PathHasPredicate(node->children[0])) return node;
    AstPtr call = std::make_shared<Ast>(*node);
    call->children[0] = PathArgToFlwr(call->children[0]);
    return call;
  });
}

// ---------------------------------------------------------------------------
// Pass 3: aggregates in where clauses → let (the Q6 rewrite)
// ---------------------------------------------------------------------------

AstPtr HoistWhereAggregates(const AstPtr& query) {
  return Transform(query, [](const AstPtr& node) -> AstPtr {
    if (node->kind != AstKind::kFlwr) return node;
    AstPtr flwr = std::make_shared<Ast>(*node);
    std::vector<Clause> out;
    for (const Clause& c : flwr->clauses) {
      if (c.kind != Clause::Kind::kWhere) {
        out.push_back(c);
        continue;
      }
      // Hoist aggregate calls whose argument is itself a query block.
      std::vector<Clause> lets;
      AstPtr pred = Transform(c.expr, [&](const AstPtr& e) -> AstPtr {
        if (e->kind != AstKind::kFnCall || !IsAggregateFn(e->name) ||
            e->children.size() != 1) {
          return e;
        }
        if (!ContainsFlwrOrPredicatePath(e->children[0])) return e;
        AstPtr call = std::make_shared<Ast>(*e);
        // Path arguments become FLWRs first:
        // count($d//bidtuple[itemno = $i1]) →
        // count(for $f in $d//bidtuple where $f/itemno = $i1 return $f).
        if (call->children[0]->kind == AstKind::kPathExpr) {
          call->children[0] = PathArgToFlwr(call->children[0]);
        }
        std::string var = FreshVar("agg");
        Clause let;
        let.kind = Clause::Kind::kLet;
        let.var = var;
        let.expr = call;
        lets.push_back(std::move(let));
        return MakeVarRef(var);
      });
      for (Clause& let : lets) out.push_back(std::move(let));
      Clause where;
      where.kind = Clause::Kind::kWhere;
      where.expr = pred;
      out.push_back(std::move(where));
    }
    flwr->clauses = std::move(out);
    return flwr;
  });
}

// ---------------------------------------------------------------------------
// Pass 4: nested FLWRs in return clauses → let (the Q1 rewrite)
// ---------------------------------------------------------------------------

AstPtr HoistFromReturn(const AstPtr& query) {
  return Transform(query, [](const AstPtr& node) -> AstPtr {
    if (node->kind != AstKind::kFlwr || node->ret == nullptr) return node;
    AstPtr flwr = std::make_shared<Ast>(*node);
    std::vector<Clause> lets;
    // Recursive: nested constructors inside the return clause are walked
    // too, so <r><min>{ FLWR }</min></r> hoists the inner block.
    std::function<void(CtorPart&)> hoist_part = [&](CtorPart& part) {
      if (part.is_literal || part.expr == nullptr) return;
      if (part.expr->kind == AstKind::kElementCtor) {
        AstPtr ctor = part.expr->Clone();
        for (auto& [name, parts] : ctor->attributes) {
          for (CtorPart& p : parts) hoist_part(p);
        }
        for (CtorPart& p : ctor->content) hoist_part(p);
        part.expr = ctor;
        return;
      }
      bool needs_hoist =
          part.expr->kind == AstKind::kFlwr ||
          (part.expr->kind == AstKind::kFnCall &&
           IsAggregateFn(part.expr->name) &&
           ContainsFlwrOrPredicatePath(part.expr));
      if (!needs_hoist) return;
      std::string var = FreshVar("t");
      Clause let;
      let.kind = Clause::Kind::kLet;
      let.var = var;
      let.expr = part.expr;
      lets.push_back(std::move(let));
      part.expr = MakeVarRef(var);
    };
    if (flwr->ret->kind == AstKind::kElementCtor) {
      AstPtr ctor = flwr->ret->Clone();
      for (auto& [name, parts] : ctor->attributes) {
        for (CtorPart& p : parts) hoist_part(p);
      }
      for (CtorPart& p : ctor->content) hoist_part(p);
      flwr->ret = ctor;
    }
    if (!lets.empty()) {
      for (Clause& let : lets) flwr->clauses.push_back(std::move(let));
    }
    return flwr;
  });
}

// ---------------------------------------------------------------------------
// Pass 5: let $v := FLWR … agg($v) (single use) → let $v := agg(FLWR)
// ---------------------------------------------------------------------------

AstPtr FoldLetAggregates(const AstPtr& query) {
  return Transform(query, [](const AstPtr& node) -> AstPtr {
    if (node->kind != AstKind::kFlwr) return node;
    AstPtr flwr = std::make_shared<Ast>(*node);
    for (size_t i = 0; i < flwr->clauses.size(); ++i) {
      Clause& let = flwr->clauses[i];
      if (let.kind != Clause::Kind::kLet || let.expr == nullptr ||
          let.expr->kind != AstKind::kFlwr) {
        continue;
      }
      // Count uses of the let variable; find the single aggregate use.
      size_t uses = 0;
      AstPtr* agg_site = nullptr;
      std::function<void(AstPtr&)> scan = [&](AstPtr& e) {
        if (e == nullptr) return;
        if (e->kind == AstKind::kVarRef && e->name == let.var) {
          ++uses;
          return;
        }
        if (e->kind == AstKind::kFnCall && IsAggregateFn(e->name) &&
            e->children.size() == 1 &&
            e->children[0]->kind == AstKind::kVarRef &&
            e->children[0]->name == let.var) {
          ++uses;
          agg_site = &e;
          return;
        }
        for (AstPtr& c : e->children) scan(c);
        for (PathStepAst& s : e->steps) scan(s.predicate);
        for (Clause& c : e->clauses) scan(c.expr);
        scan(e->ret);
        scan(e->range);
        scan(e->satisfies);
        for (auto& [name, parts] : e->attributes) {
          for (CtorPart& p : parts) scan(p.expr);
        }
        for (CtorPart& p : e->content) scan(p.expr);
      };
      for (size_t j = i + 1; j < flwr->clauses.size(); ++j) {
        scan(flwr->clauses[j].expr);
      }
      scan(flwr->ret);
      if (uses == 1 && agg_site != nullptr) {
        AstPtr call = std::make_shared<Ast>(**agg_site);
        call->children[0] = let.expr;
        let.expr = call;
        *agg_site = MakeVarRef(let.var);
      }
    }
    return flwr;
  });
}

AstPtr NormalizeFlwrReturns(const AstPtr& query) {
  return Transform(query, [](const AstPtr& node) -> AstPtr {
    if (node->kind != AstKind::kFlwr || node->ret == nullptr) return node;
    if (node->ret->kind == AstKind::kVarRef ||
        node->ret->kind == AstKind::kElementCtor) {
      return node;
    }
    // The paper's Q1 normalization: `return $b2/title` becomes
    // `let $t2 := $b2/title ... return $t2`.
    AstPtr flwr = std::make_shared<Ast>(*node);
    std::string var = FreshVar("r");
    Clause let;
    let.kind = Clause::Kind::kLet;
    let.var = var;
    let.expr = flwr->ret;
    flwr->clauses.push_back(std::move(let));
    flwr->ret = MakeVarRef(var);
    return flwr;
  });
}

AstPtr Normalize(const AstPtr& query) {
  AstPtr out = InlineDocLets(query);
  out = HoistPathPredicates(out);
  out = NormalizeQuantifiers(out);
  out = NormalizeAggregateArgs(out);
  out = HoistWhereAggregates(out);
  out = BindWherePaths(out);
  out = HoistFromReturn(out);
  out = FoldLetAggregates(out);
  out = NormalizeFlwrReturns(out);
  return out;
}

}  // namespace nalq::xquery
