// Shared helpers for the NAL test suite: literal relation builders, random
// sequence generators and order-sensitive comparison assertions.
#ifndef NALQ_TESTS_TEST_UTIL_H_
#define NALQ_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "nal/algebra.h"
#include "nal/eval.h"
#include "nal/printer.h"
#include "nal/sequence.h"

namespace nalq::testutil {

/// Builds a literal tuple from (name, value) pairs.
inline nal::Tuple T(
    std::initializer_list<std::pair<const char*, nal::Value>> bindings) {
  nal::Tuple t;
  for (const auto& [name, value] : bindings) {
    t.Set(nal::Symbol(name), value);
  }
  return t;
}

inline nal::Value I(int64_t v) { return nal::Value(v); }
inline nal::Value D(double v) { return nal::Value(v); }
inline nal::Value S(const char* v) { return nal::Value(v); }

/// Wraps a literal sequence as an algebra leaf:
/// μ_g(χ_{g:const}(□)) yields exactly the sequence, in order.
inline nal::AlgebraPtr Table(nal::Sequence rows) {
  nal::Symbol g = nal::Symbol::Fresh("table");
  return nal::Unnest(
      g,
      nal::Map(g, nal::MakeConst(nal::Value::FromTuples(std::move(rows))),
               nal::Singleton()),
      /*distinct=*/false, /*outer=*/false);
}

/// Order-sensitive equality with a readable failure message.
inline ::testing::AssertionResult SeqEq(const nal::Sequence& expected,
                                        const nal::Sequence& actual) {
  if (nal::SequencesEqual(expected, actual)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "sequences differ\nexpected: " << nal::DebugStringOf(expected)
         << "\nactual:   " << nal::DebugStringOf(actual);
}

/// Deterministic random-relation generator. Values are drawn from a small
/// domain so joins/groups hit both matching and non-matching cases,
/// including empty groups (the count-bug scenario).
class RandomRelation {
 public:
  explicit RandomRelation(unsigned seed) : rng_(seed) {}

  nal::Value RandomValue(int domain) {
    std::uniform_int_distribution<int> pick(0, 3);
    std::uniform_int_distribution<int> val(0, domain - 1);
    switch (pick(rng_)) {
      case 0:
        return nal::Value(static_cast<int64_t>(val(rng_)));
      case 1:
        return nal::Value(static_cast<double>(val(rng_)) + 0.5);
      default:
        return nal::Value("v" + std::to_string(val(rng_)));
    }
  }

  /// Sequence with attributes `attrs`, `rows` tuples, values from a domain
  /// of size `domain`.
  nal::Sequence Make(const std::vector<const char*>& attrs, size_t rows,
                     int domain) {
    nal::Sequence out;
    for (size_t i = 0; i < rows; ++i) {
      nal::Tuple t;
      for (const char* a : attrs) {
        t.Set(nal::Symbol(a), RandomValue(domain));
      }
      out.Append(std::move(t));
    }
    return out;
  }

  /// Sequence where attribute `nested` holds an item sequence of 0..max_len
  /// values (the e[a'] shape of Eqv. 4/5 before binding).
  nal::Sequence MakeWithNested(const std::vector<const char*>& attrs,
                               const char* nested, nal::Symbol item_attr,
                               size_t rows, int domain, int max_len) {
    nal::Sequence out;
    std::uniform_int_distribution<int> len(0, max_len);
    for (size_t i = 0; i < rows; ++i) {
      nal::Tuple t;
      for (const char* a : attrs) {
        t.Set(nal::Symbol(a), RandomValue(domain));
      }
      nal::Sequence inner;
      int n = len(rng_);
      for (int j = 0; j < n; ++j) {
        nal::Tuple it;
        it.Set(item_attr, RandomValue(domain));
        inner.Append(std::move(it));
      }
      t.Set(nal::Symbol(nested), nal::Value::FromTuples(std::move(inner)));
      out.Append(std::move(t));
    }
    return out;
  }

  std::mt19937& rng() { return rng_; }

 private:
  std::mt19937 rng_;
};

/// Succeeds iff no AlgebraOp or Expr node is reachable twice from `plan`,
/// walking children, pred, expr, agg.filter, the Ξ programs, Expr children
/// and Expr::alg. Alternatives may share subtrees with each other, never
/// within one plan: profiles, estimates and spool hints key per-plan state
/// by node address.
inline ::testing::AssertionResult NoNodeTwice(const nal::AlgebraOp& plan) {
  std::set<const void*> seen;
  std::string repeated;
  std::function<void(const nal::ExprPtr&)> expr;
  std::function<void(const nal::AlgebraOp&)> op =
      [&](const nal::AlgebraOp& o) {
        if (!seen.insert(&o).second) {
          repeated = "operator " + nal::OpHeadline(o);
          return;
        }
        for (const nal::AlgebraPtr& c : o.children) op(*c);
        expr(o.pred);
        expr(o.expr);
        expr(o.agg.filter);
        for (const nal::XiProgram* program : {&o.s1, &o.s2, &o.s3}) {
          for (const nal::XiCommand& c : *program) expr(c.expr);
        }
      };
  expr = [&](const nal::ExprPtr& e) {
    if (e == nullptr) return;
    if (!seen.insert(e.get()).second) {
      repeated = "expression " + e->DebugString();
      return;
    }
    for (const nal::ExprPtr& c : e->children) expr(c);
    expr(e->agg.filter);
    if (e->alg != nullptr) op(*e->alg);
  };
  op(plan);
  if (repeated.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "reachable twice: " << repeated;
}

/// `text` with the counter of every fresh name — `<base>#<n>` from
/// nal::Symbol::Fresh (and `cse#<n>`), `<base>#n<n>` from xquery::FreshVar —
/// replaced by its rank of first appearance, so that plans compiled at
/// different points of one process, or in different processes, compare
/// equal.
inline std::string RenumberFreshNames(const std::string& text) {
  static const std::regex kFresh(R"(([A-Za-z_][A-Za-z0-9_.\-]*#n?)([0-9]+))");
  std::map<std::string, size_t> ranks;
  std::string out;
  size_t copied = 0;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kFresh);
       it != std::sregex_iterator(); ++it) {
    const std::smatch& m = *it;
    const size_t at = static_cast<size_t>(m.position());
    out.append(text, copied, at - copied);
    const size_t rank = ranks.emplace(m.str(), ranks.size()).first->second;
    out += m.str(1) + std::to_string(rank);
    copied = at + static_cast<size_t>(m.length());
  }
  out.append(text, copied);
  return out;
}

}  // namespace nalq::testutil

#endif  // NALQ_TESTS_TEST_UTIL_H_
