// XPath-lite: the path fragment used by the paper's queries.
//
//   path     ::= ('/' | '//')? step (('/' | '//') step)*
//   step     ::= name | '*' | '@' name | 'text()'
//
// Predicates ([...]) are *not* evaluated here; the XQuery normalizer moves
// them into where clauses (paper Sec. 3 step 4) before translation. Results
// are duplicate-free and in document order, the property the paper relies on
// for the Υ operator ("Υ generates its output in document order").
#ifndef NALQ_XML_XPATH_H_
#define NALQ_XML_XPATH_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "xml/store.h"

namespace nalq::xml {

enum class Axis : uint8_t { kChild, kDescendant, kAttribute, kText };

struct Step {
  Axis axis = Axis::kChild;
  std::string name;  ///< name test; "*" matches any element
  bool wildcard() const { return name == "*"; }

  friend bool operator==(const Step&, const Step&) = default;
};

/// A parsed path. `absolute` paths start at the document node of each context
/// node's document; relative paths start at the context nodes themselves.
class Path {
 public:
  Path() = default;
  Path(bool absolute, std::vector<Step> steps)
      : absolute_(absolute), steps_(std::move(steps)) {}

  /// Parses the textual form, e.g. "//book/title", "author", "@year",
  /// "bidtuple/itemno". Throws std::invalid_argument on malformed input.
  static Path Parse(std::string_view text);

  bool absolute() const { return absolute_; }
  const std::vector<Step>& steps() const { return steps_; }
  bool empty() const { return steps_.empty(); }

  /// Concatenation: `this` then `rest` (rest must be relative). The
  /// rvalue overload extends this path's step vector in place instead of
  /// copying it.
  Path Concat(const Path& rest) const&;
  Path Concat(const Path& rest) &&;

  std::string ToString() const;

  friend bool operator==(const Path&, const Path&) = default;

 private:
  bool absolute_ = false;
  std::vector<Step> steps_;
};

/// Which strategy resolves path steps. Both produce identical results on
/// every path and context (asserted by tests/xpath_index_test.cpp).
enum class PathEvalMode : uint8_t {
  /// Steps resolve against the per-document structural index (xml/index.h):
  /// a descendant step is a binary-search range scan of the name's
  /// occurrence list restricted to the context's [pre, pre+size) extent —
  /// document order for free, no subtree walk. Child/attribute/text steps
  /// keep the direct walk of the children with an occurrence-slice fast
  /// path when the name is rare under the context.
  kIndexed,
  /// A walk of the context's extent per step — the pre-index behavior;
  /// kept as the differential-testing reference.
  kScan,
};

/// Saturating add for statistics counters: a merge of per-worker counters
/// (or a counter running for a very long process) pins at UINT64_MAX
/// instead of wrapping to a small number that would silently corrupt
/// reports and differential comparisons.
inline uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  uint64_t sum = a + b;
  return sum < a ? UINT64_MAX : sum;
}

/// Counters the evaluator exposes so the benchmarks can report how often the
/// nested plan rescans a document (the paper's "|author|+1 scans" argument)
/// and how much of that walking the structural index avoids.
struct XPathStats {
  uint64_t steps_evaluated = 0;
  /// Nodes touched: walk visits in scan mode (attributes skipped on the way
  /// to an element's children are not visits), occurrence-list candidates
  /// in indexed mode.
  uint64_t nodes_visited = 0;
  /// Occurrence-list probes (one per binary-searched lookup).
  uint64_t index_lookups = 0;
  /// Probes the index answered outright (slice emitted, or provably empty);
  /// the remainder fell back to the walk.
  uint64_t index_hits = 0;
  /// Subtree nodes a scan-mode walk would have visited that the indexed
  /// range scan never touched. An upper bound: extents count attributes
  /// (which the walk skips), and nested contexts count their extent
  /// once per context — mirroring the scan walk, which re-walks an inner
  /// context's subtree for every enclosing context.
  uint64_t index_nodes_skipped = 0;

  /// Merges a per-worker counter set (saturating, see SaturatingAdd). The
  /// parallel executor gives every worker its own stats and folds them into
  /// the main evaluator's when the exchange closes.
  XPathStats& operator+=(const XPathStats& other) {
    steps_evaluated = SaturatingAdd(steps_evaluated, other.steps_evaluated);
    nodes_visited = SaturatingAdd(nodes_visited, other.nodes_visited);
    index_lookups = SaturatingAdd(index_lookups, other.index_lookups);
    index_hits = SaturatingAdd(index_hits, other.index_hits);
    index_nodes_skipped =
        SaturatingAdd(index_nodes_skipped, other.index_nodes_skipped);
    return *this;
  }
};

/// Evaluates `path` from a single context node. Results are in document
/// order and duplicate-free.
std::vector<NodeRef> EvalPath(const Store& store, const Path& path,
                              NodeRef context, XPathStats* stats = nullptr,
                              PathEvalMode mode = PathEvalMode::kIndexed);

/// Allocation-reusing form of the single-context EvalPath: fills `*out`
/// (cleared first) instead of returning a fresh vector — for per-tuple path
/// evaluation loops.
void EvalPathInto(const Store& store, const Path& path, NodeRef context,
                  XPathStats* stats, std::vector<NodeRef>* out,
                  PathEvalMode mode = PathEvalMode::kIndexed);

/// Evaluates `path` from a sequence of context nodes (result merged into
/// document order, duplicates removed).
std::vector<NodeRef> EvalPath(const Store& store, const Path& path,
                              std::span<const NodeRef> context,
                              XPathStats* stats = nullptr,
                              PathEvalMode mode = PathEvalMode::kIndexed);

}  // namespace nalq::xml

#endif  // NALQ_XML_XPATH_H_
