#include "xquery/normalize.h"

#include <algorithm>
#include <atomic>
#include <functional>

namespace nalq::xquery {

namespace {

/// Calls `fn` on every non-null direct sub-AST slot of `node` (an `Ast` or a
/// `const Ast`), in source order: the return before the order by keys.
template <typename Node, typename Fn>
void ForEachSubAst(Node& node, const Fn& fn) {
  for (auto& c : node.children) fn(c);
  for (auto& s : node.steps) {
    if (s.predicate != nullptr) fn(s.predicate);
  }
  for (auto& c : node.clauses) {
    if (c.expr != nullptr) fn(c.expr);
  }
  if (node.ret != nullptr) fn(node.ret);
  for (auto& [key, desc] : node.order_by) fn(key);
  if (node.range != nullptr) fn(node.range);
  if (node.satisfies != nullptr) fn(node.satisfies);
  for (auto& [name, parts] : node.attributes) {
    for (auto& p : parts) {
      if (p.expr != nullptr) fn(p.expr);
    }
  }
  for (auto& p : node.content) {
    if (p.expr != nullptr) fn(p.expr);
  }
}

/// `node` with every direct sub-AST replaced by `fn(sub-AST)`, in source
/// order. Path copying: `node` is copied (one node, its sub-ASTs shared) only
/// when some sub-AST comes back as a different pointer; otherwise `node`
/// itself is returned, so an unchanged subtree stays shared with the input.
template <typename Fn>
AstPtr MapChildren(const AstPtr& node, const Fn& fn) {
  AstPtr copy;
  size_t slot = 0;
  ForEachSubAst(*node, [&](const AstPtr& sub) {
    AstPtr mapped = fn(sub);
    if (mapped != sub) {
      if (copy == nullptr) copy = std::make_shared<Ast>(*node);
      size_t i = 0;
      ForEachSubAst(*copy, [&](AstPtr& s) {
        if (i++ == slot) s = std::move(mapped);
      });
    }
    ++slot;
  });
  return copy != nullptr ? copy : node;
}

/// Applies `fn` to every sub-AST bottom-up and returns the rebuilt tree.
/// Nodes are never written: `fn` returns its argument when it leaves a node
/// as it is, and a new node otherwise, so only the path from the root to
/// each rewritten node is copied and every other subtree stays shared with
/// the input.
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

/// Is `e` a conjunction JoinConjuncts builds: nested on the left only?
bool IsLeftDeep(const AstPtr& e) {
  return e->kind != AstKind::kAnd ||
         (e->children[1]->kind != AstKind::kAnd && IsLeftDeep(e->children[0]));
}

/// JoinConjuncts(`conjuncts`), the split of `e`; `e` itself when no conjunct
/// was `rewritten` and the join would rebuild the same tree.
AstPtr RejoinConjuncts(const AstPtr& e, const std::vector<AstPtr>& conjuncts,
                       bool rewritten) {
  return !rewritten && IsLeftDeep(e) ? e : JoinConjuncts(conjuncts);
}

}  // namespace

std::string FreshVar(const std::string& prefix) {
  static std::atomic<uint64_t> counter{0};
  // '#' is no XQuery name character, so no query can spell this variable;
  // the 'n' keeps it apart from nal::Symbol::Fresh's `<base>#<digits>`.
  return prefix + "#n" + std::to_string(counter.fetch_add(1));
}

namespace {

/// Substitutes every reference to $var with `replacement` (shared: no pass
/// writes to a node).
AstPtr SubstituteVar(const AstPtr& e, const std::string& var,
                     const AstPtr& replacement) {
  return Transform(e, [&](const AstPtr& node) -> AstPtr {
    if (node->kind == AstKind::kVarRef && node->name == var) {
      return replacement;
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
  auto is_doc_let = [](const Clause& c) {
    return c.kind == Clause::Kind::kLet && c.expr != nullptr &&
           c.expr->kind == AstKind::kFnCall &&
           (c.expr->name == "doc" || c.expr->name == "document") &&
           c.expr->children.size() == 1 &&
           c.expr->children[0]->kind == AstKind::kLiteral;
  };
  return Transform(query, [&](const AstPtr& node) -> AstPtr {
    if (node->kind != AstKind::kFlwr ||
        std::none_of(node->clauses.begin(), node->clauses.end(),
                     is_doc_let)) {
      return node;
    }
    AstPtr flwr = std::make_shared<Ast>(*node);
    for (size_t i = 0; i < flwr->clauses.size();) {
      const Clause& c = flwr->clauses[i];
      if (!is_doc_let(c)) {
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
    if (node->kind == AstKind::kFlwr) return WalkFlwr(node);
    if (node->kind == AstKind::kQuantified) {
      AstPtr range = node->range != nullptr ? Walk(node->range) : nullptr;
      BindScope scope;
      scope.quantifier = true;
      scope.vars.push_back(node->qvar);
      scopes_.push_back(std::move(scope));
      AstPtr satisfies =
          node->satisfies != nullptr ? Walk(node->satisfies) : nullptr;
      scopes_.pop_back();
      if (range == node->range && satisfies == node->satisfies) return node;
      AstPtr q = std::make_shared<Ast>(*node);
      q->range = std::move(range);
      q->satisfies = std::move(satisfies);
      return q;
    }
    return MapChildren(node, [this](const AstPtr& c) { return Walk(c); });
  }

 private:
  AstPtr WalkFlwr(const AstPtr& node) {
    const size_t n = node->clauses.size();
    std::vector<Clause> clauses = node->clauses;
    scopes_.emplace_back();
    scopes_.back().lets.resize(n + 1);
    for (size_t i = 0; i < n; ++i) {
      scopes_.back().clause = i;
      Clause& c = clauses[i];
      if (c.expr != nullptr) c.expr = Walk(c.expr);
      if (c.kind != Clause::Kind::kWhere) Rebind(&scopes_.back(), c.var);
    }
    scopes_.back().clause = n;
    AstPtr ret = node->ret != nullptr ? Walk(node->ret) : nullptr;
    std::vector<std::pair<AstPtr, bool>> order_by = node->order_by;
    for (auto& [key, desc] : order_by) key = Walk(key);
    BindScope scope = std::move(scopes_.back());
    scopes_.pop_back();

    bool changed = ret != node->ret;
    std::vector<std::string> local;  // this FLWR's variables bound so far
    std::vector<Clause> out;
    for (size_t i = 0; i < n; ++i) {
      for (Clause& let : scope.lets[i]) out.push_back(std::move(let));
      Clause& c = clauses[i];
      if (c.kind == Clause::Kind::kWhere) {
        c.expr = BindOperands(c.expr, local, &out);
      } else {
        local.push_back(c.var);
      }
      changed |= c.expr != node->clauses[i].expr;
      out.push_back(std::move(c));
    }
    for (Clause& let : scope.lets[n]) out.push_back(std::move(let));
    changed |= out.size() != n;  // lets were bound here
    for (size_t i = 0; i < order_by.size(); ++i) {
      changed |= order_by[i].first != node->order_by[i].first;
    }
    if (!changed) return node;
    AstPtr flwr = std::make_shared<Ast>(*node);
    flwr->clauses = std::move(out);
    flwr->ret = std::move(ret);
    flwr->order_by = std::move(order_by);
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
    bool rewritten = false;
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
        rewritten = true;
      }
    }
    return RejoinConjuncts(where, conjuncts, rewritten);
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
  // Only a predicate on the final step is hoisted; earlier-step predicates
  // would change which subtrees are visited, and the queries in scope only
  // use final-step predicates.
  auto has_final_predicate = [](const Clause& c) {
    return c.kind == Clause::Kind::kFor && c.expr != nullptr &&
           c.expr->kind == AstKind::kPathExpr && !c.expr->steps.empty() &&
           c.expr->steps.back().predicate != nullptr;
  };
  return Transform(query, [&](const AstPtr& node) -> AstPtr {
    if (node->kind != AstKind::kFlwr ||
        std::none_of(node->clauses.begin(), node->clauses.end(),
                     has_final_predicate)) {
      return node;
    }
    std::vector<Clause> out;
    for (const Clause& c : node->clauses) {
      out.push_back(c);
      if (!has_final_predicate(c)) continue;
      AstPtr range = std::make_shared<Ast>(*c.expr);
      AstPtr pred = range->steps.back().predicate;
      range->steps.back().predicate = nullptr;
      out.back().expr = range;
      Clause where;
      where.kind = Clause::Kind::kWhere;
      where.expr = RebaseContext(pred, c.var);
      out.push_back(std::move(where));
    }
    AstPtr flwr = std::make_shared<Ast>(*node);
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
AstPtr UnnestWherePaths(const AstPtr& flwr) {
  std::vector<Clause> out;
  std::vector<std::string> bound;
  bool changed = false;
  for (const Clause& c : flwr->clauses) {
    if (c.kind != Clause::Kind::kWhere) {
      bound.push_back(c.var);
      out.push_back(c);
      continue;
    }
    std::vector<AstPtr> conjuncts;
    SplitConjuncts(c.expr, &conjuncts);
    bool rewritten = false;
    for (AstPtr& conj : conjuncts) {
      if (conj->kind != AstKind::kCmp) continue;
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
          rewritten = true;
        }
      }
    }
    out.push_back(c);
    out.back().expr = RejoinConjuncts(c.expr, conjuncts, rewritten);
    changed |= out.back().expr != c.expr;
  }
  if (!changed) return flwr;
  AstPtr copy = std::make_shared<Ast>(*flwr);
  copy->clauses = std::move(out);
  return copy;
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
      flwr = range;
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
    flwr = UnnestWherePaths(flwr);
    // (d) Change the range variable when the satisfies clause accesses the
    //     bound variable through exactly one path (Q5: $b2/@year).
    std::vector<AstPtr> paths;
    bool only_paths = CollectVarPaths(q->satisfies, q->qvar, &paths);
    if (only_paths && paths.size() == 1 && flwr->ret != nullptr &&
        flwr->ret->kind == AstKind::kVarRef) {
      const std::string range_var = flwr->ret->name;
      // The path is rooted at the quantifier variable; re-root it at the
      // range's return variable.
      AstPtr rebased = std::make_shared<Ast>(*paths[0]);
      rebased->children[0] = MakeVarRef(range_var);
      std::string fresh = FreshVar("q");
      Clause value_clause;
      value_clause.kind = Clause::Kind::kFor;
      value_clause.var = fresh;
      value_clause.expr = rebased;
      flwr = std::make_shared<Ast>(*flwr);
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
  return UnnestWherePaths(HoistPathPredicates(sub));
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
    std::vector<Clause> out;
    bool changed = false;
    for (const Clause& c : node->clauses) {
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
      changed |= pred != c.expr;
      for (Clause& let : lets) out.push_back(std::move(let));
      Clause where;
      where.kind = Clause::Kind::kWhere;
      where.expr = pred;
      out.push_back(std::move(where));
    }
    if (!changed) return node;
    AstPtr flwr = std::make_shared<Ast>(*node);
    flwr->clauses = std::move(out);
    return flwr;
  });
}

// ---------------------------------------------------------------------------
// Pass 4: nested FLWRs in return clauses → let (the Q1 rewrite)
// ---------------------------------------------------------------------------

AstPtr HoistFromReturn(const AstPtr& query) {
  return Transform(query, [](const AstPtr& node) -> AstPtr {
    if (node->kind != AstKind::kFlwr || node->ret == nullptr ||
        node->ret->kind != AstKind::kElementCtor) {
      return node;
    }
    std::vector<Clause> lets;
    // Recursive: nested constructors inside the return clause are walked
    // too, so <r><min>{ FLWR }</min></r> hoists the inner block.
    std::function<AstPtr(const AstPtr&)> hoist_part =
        [&](const AstPtr& part) -> AstPtr {
      if (part->kind == AstKind::kElementCtor) {
        return MapChildren(part, hoist_part);
      }
      bool needs_hoist = part->kind == AstKind::kFlwr ||
                         (part->kind == AstKind::kFnCall &&
                          IsAggregateFn(part->name) &&
                          ContainsFlwrOrPredicatePath(part));
      if (!needs_hoist) return part;
      std::string var = FreshVar("t");
      Clause let;
      let.kind = Clause::Kind::kLet;
      let.var = var;
      let.expr = part;
      lets.push_back(std::move(let));
      return MakeVarRef(var);
    };
    AstPtr ret = MapChildren(node->ret, hoist_part);
    if (lets.empty()) return node;
    AstPtr flwr = std::make_shared<Ast>(*node);
    for (Clause& let : lets) flwr->clauses.push_back(std::move(let));
    flwr->ret = std::move(ret);
    return flwr;
  });
}

// ---------------------------------------------------------------------------
// Pass 5: let $v := FLWR … agg($v) (single use) → let $v := agg(FLWR)
// ---------------------------------------------------------------------------

namespace {

/// Calls `fn` on every sub-AST of FLWR `flwr` in the scope of its clause
/// `i`: the later clauses, the return and the order by keys.
template <typename Node, typename Fn>
void ForEachInScopeOf(Node& flwr, size_t i, const Fn& fn) {
  for (size_t j = i + 1; j < flwr.clauses.size(); ++j) {
    if (flwr.clauses[j].expr != nullptr) fn(flwr.clauses[j].expr);
  }
  if (flwr.ret != nullptr) fn(flwr.ret);
  for (auto& [key, desc] : flwr.order_by) fn(key);
}

/// `e` with the node `site` replaced by `with`, copying only the path to it.
AstPtr ReplaceNode(const AstPtr& e, const Ast* site, const AstPtr& with) {
  if (e.get() == site) return with;
  return MapChildren(
      e, [&](const AstPtr& c) { return ReplaceNode(c, site, with); });
}

}  // namespace

AstPtr FoldLetAggregates(const AstPtr& query) {
  return Transform(query, [](const AstPtr& node) -> AstPtr {
    if (node->kind != AstKind::kFlwr) return node;
    AstPtr flwr = node;  // copied on the first fold
    for (size_t i = 0; i < flwr->clauses.size(); ++i) {
      const Clause& let = flwr->clauses[i];
      if (let.kind != Clause::Kind::kLet || let.expr == nullptr ||
          let.expr->kind != AstKind::kFlwr) {
        continue;
      }
      // Count uses of the let variable; find the single aggregate use.
      size_t uses = 0;
      const Ast* agg_site = nullptr;
      std::function<void(const AstPtr&)> scan = [&](const AstPtr& e) {
        if (e->kind == AstKind::kVarRef && e->name == let.var) {
          ++uses;
          return;
        }
        if (e->kind == AstKind::kFnCall && IsAggregateFn(e->name) &&
            e->children.size() == 1 &&
            e->children[0]->kind == AstKind::kVarRef &&
            e->children[0]->name == let.var) {
          ++uses;
          agg_site = e.get();
          return;
        }
        ForEachSubAst(*e, scan);
      };
      ForEachInScopeOf(*flwr, i, scan);
      if (uses != 1 || agg_site == nullptr) continue;
      if (flwr == node) flwr = std::make_shared<Ast>(*node);
      Clause& folded = flwr->clauses[i];
      AstPtr call = std::make_shared<Ast>(*agg_site);
      call->children[0] = folded.expr;
      folded.expr = call;
      AstPtr ref = MakeVarRef(folded.var);
      ForEachInScopeOf(*flwr, i, [&](AstPtr& e) {
        e = ReplaceNode(e, agg_site, ref);
      });
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
