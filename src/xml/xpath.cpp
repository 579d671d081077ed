#include "xml/xpath.h"

#include <algorithm>
#include <stdexcept>

namespace nalq::xml {

namespace {

bool IsStepChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.' || c == ':';
}

}  // namespace

Path Path::Parse(std::string_view text) {
  std::vector<Step> steps;
  bool absolute = false;
  size_t i = 0;
  auto fail = [&](const std::string& message) {
    throw std::invalid_argument("bad path '" + std::string(text) +
                                "': " + message);
  };
  Axis pending = Axis::kChild;
  if (text.substr(0, 2) == "//") {
    absolute = true;
    pending = Axis::kDescendant;
    i = 2;
  } else if (!text.empty() && text[0] == '/') {
    absolute = true;
    i = 1;
  }
  for (;;) {
    if (i >= text.size()) fail("trailing separator or empty path");
    Step step;
    step.axis = pending;
    if (text[i] == '@') {
      if (pending == Axis::kDescendant) fail("//@ not supported");
      step.axis = Axis::kAttribute;
      ++i;
    }
    if (i < text.size() && text[i] == '*') {
      step.name = "*";
      ++i;
    } else {
      size_t start = i;
      while (i < text.size() && IsStepChar(text[i])) ++i;
      if (i == start) fail("expected step name");
      step.name = std::string(text.substr(start, i - start));
      if (step.name == "text" && text.substr(i, 2) == "()") {
        step.axis = pending == Axis::kDescendant ? Axis::kDescendant
                                                 : Axis::kText;
        if (pending == Axis::kDescendant) fail("//text() not supported");
        i += 2;
      }
    }
    steps.push_back(std::move(step));
    if (i >= text.size()) break;
    if (text.substr(i, 2) == "//") {
      pending = Axis::kDescendant;
      i += 2;
    } else if (text[i] == '/') {
      pending = Axis::kChild;
      ++i;
    } else {
      fail("unexpected character");
    }
  }
  return Path(absolute, std::move(steps));
}

Path Path::Concat(const Path& rest) const& {
  Path out;
  out.absolute_ = absolute_;
  out.steps_.reserve(steps_.size() + rest.steps_.size());
  out.steps_.insert(out.steps_.end(), steps_.begin(), steps_.end());
  out.steps_.insert(out.steps_.end(), rest.steps_.begin(), rest.steps_.end());
  return out;
}

Path Path::Concat(const Path& rest) && {
  steps_.reserve(steps_.size() + rest.steps_.size());
  steps_.insert(steps_.end(), rest.steps_.begin(), rest.steps_.end());
  return std::move(*this);
}

std::string Path::ToString() const {
  std::string out;
  bool first = true;
  for (const Step& s : steps_) {
    if (s.axis == Axis::kDescendant) {
      out += "//";
    } else if (!first || absolute_) {
      out += "/";
    }
    if (s.axis == Axis::kAttribute) out += '@';
    out += s.axis == Axis::kText ? "text()" : s.name;
    first = false;
  }
  return out;
}

namespace {

/// Appends all matching nodes for one step from `from`, in document order,
/// by walking the context's extent (PathEvalMode::kScan, and the walk side
/// of the indexed child/attribute fast path). Children are found the way
/// node.h derives them: past the element's attributes, each child starts
/// where the previous one's extent ends. `name_id` is the step name
/// resolved against `doc`'s interner (resolved once per step by the caller,
/// not per context node). Skipping attributes is not a visit.
void ApplyStep(const Document& doc, DocId doc_id, const Step& step,
               uint32_t name_id, NodeId from, std::vector<NodeRef>* out,
               XPathStats* stats) {
  auto matches = [&](NodeId id) {
    if (stats != nullptr) ++stats->nodes_visited;
    const NodeKind kind = doc.kind(id);
    if (step.axis == Axis::kText) return kind == NodeKind::kText;
    return kind == NodeKind::kElement &&
           (step.wildcard() || doc.name_id(id) == name_id);
  };
  const NodeId end = doc.subtree_end(from);
  switch (step.axis) {
    case Axis::kAttribute: {
      if (doc.kind(from) != NodeKind::kElement) return;
      if (name_id == UINT32_MAX && !step.wildcard()) return;
      for (NodeId a = from + 1;
           a < end && doc.kind(a) == NodeKind::kAttribute; ++a) {
        if (stats != nullptr) ++stats->nodes_visited;
        if (step.wildcard() || doc.name_id(a) == name_id) {
          out->push_back(NodeRef{doc_id, a});
        }
      }
      return;
    }
    case Axis::kChild:
    case Axis::kText: {
      if (name_id == UINT32_MAX && !step.wildcard() &&
          step.axis != Axis::kText) {
        return;  // name never occurs in this document
      }
      for (NodeId c = doc.first_child(from); c < end; c = doc.subtree_end(c)) {
        if (matches(c)) out->push_back(NodeRef{doc_id, c});
      }
      return;
    }
    case Axis::kDescendant: {
      if (name_id == UINT32_MAX && !step.wildcard()) return;
      // Every non-attribute node of the extent, in preorder: the
      // descendant axis in document order.
      for (NodeId d = from + 1; d < end; ++d) {
        if (doc.kind(d) == NodeKind::kAttribute) continue;
        if (matches(d)) out->push_back(NodeRef{doc_id, d});
      }
      return;
    }
  }
}

/// True if the sorted, duplicate-free preorder list `refs` contains an
/// ancestor-descendant pair. In preorder, when refs[i] is an ancestor of any
/// later entry it is an ancestor of refs[i+1] in particular (everything
/// between them lies inside refs[i]'s extent), so adjacent checks suffice.
bool HasNestedPair(const Document& doc, const std::vector<NodeRef>& refs) {
  for (size_t i = 0; i + 1 < refs.size(); ++i) {
    if (refs[i + 1].id < doc.subtree_end(refs[i].id)) return true;
  }
  return false;
}

/// Indexed descendant step over the whole context list: one merged pass over
/// the name's occurrence list. The contexts arrive sorted in document order
/// with laminar subtree extents, so a monotone cursor into the occurrence
/// list both restarts each range scan where the previous one ended and skips
/// ranges already covered by an enclosing context — the output is in
/// document order and duplicate-free with no sort+unique normalization.
void IndexedDescendantStep(const Document& doc, DocId doc_id,
                           const DocumentIndex& index, const Step& step,
                           uint32_t name_id,
                           const std::vector<NodeRef>& contexts,
                           std::vector<NodeRef>* out, XPathStats* stats) {
  std::span<const NodeId> list =
      step.wildcard() ? index.AllElements() : index.Elements(name_id);
  size_t cursor = 0;
  for (const NodeRef& ref : contexts) {
    NodeId lo = ref.id + 1;  // strict descendants: the extent minus self
    NodeId hi = doc.subtree_end(ref.id);
    if (stats != nullptr) {
      ++stats->index_lookups;
      ++stats->index_hits;
      // The scan walk would have visited the whole extent per context
      // (nested contexts re-walk their subtree), minus the attributes it
      // never descends into... the extent count is the upper bound we
      // report.
      stats->index_nodes_skipped += hi - lo;
    }
    if (cursor >= list.size()) continue;
    auto first = std::lower_bound(list.begin() + cursor, list.end(), lo);
    auto last = std::lower_bound(first, list.end(), hi);
    size_t k = static_cast<size_t>(last - first);
    if (stats != nullptr) {
      stats->nodes_visited += k;
      stats->index_nodes_skipped -= k;
    }
    out->reserve(out->size() + k);
    for (auto it = first; it != last; ++it) {
      out->push_back(NodeRef{doc_id, *it});
    }
    cursor = static_cast<size_t>(last - list.begin());
  }
}

/// Child/attribute/text step from one context via the occurrence list:
/// binary-search the slice inside the context's extent and keep the entries
/// whose parent is the context. Returns false when the walk is the
/// better plan (wildcard step, or the slice is not much smaller than the
/// subtree — the ancestor-check filter would touch more nodes than the
/// children).
bool TryIndexedDirectStep(const Document& doc, DocId doc_id,
                          const DocumentIndex& index, const Step& step,
                          uint32_t name_id, NodeId from,
                          std::vector<NodeRef>* out, XPathStats* stats) {
  if (step.wildcard()) return false;  // no single occurrence list to slice
  std::span<const NodeId> list;
  switch (step.axis) {
    case Axis::kChild:
      list = index.Elements(name_id);
      break;
    case Axis::kText:
      list = index.TextNodes();
      break;
    case Axis::kAttribute:
      if (doc.kind(from) != NodeKind::kElement) return true;  // no attrs
      list = index.Attributes(name_id);
      break;
    default:
      return false;
  }
  NodeId lo = from + 1;
  NodeId hi = doc.subtree_end(from);
  // Small subtree: the walk touches at most `extent` nodes
  // sequentially, cheaper than two binary searches over a document-wide
  // occurrence list (the per-tuple hot case — child steps from one small
  // element).
  if (hi - lo <= 64) return false;
  if (stats != nullptr) ++stats->index_lookups;
  auto first = std::lower_bound(list.begin(), list.end(), lo);
  auto last = std::lower_bound(first, list.end(), hi);
  size_t k = static_cast<size_t>(last - first);
  if (k == 0) {
    // The name never occurs below the context: provably empty, no walk.
    if (stats != nullptr) ++stats->index_hits;
    return true;
  }
  // The slice holds every occurrence in the whole subtree; filtering it on
  // parent == context only beats walking the children when the slice is
  // much smaller than the subtree (the extent is the proxy for the length
  // of that walk).
  if (k * 8 > static_cast<size_t>(hi - lo)) return false;
  if (stats != nullptr) {
    ++stats->index_hits;
    stats->nodes_visited += k;
  }
  out->reserve(out->size() + k);
  for (auto it = first; it != last; ++it) {
    if (doc.parent(*it) == from) out->push_back(NodeRef{doc_id, *it});
  }
  return true;
}

}  // namespace

void EvalPathInto(const Store& store, const Path& path, NodeRef context,
                  XPathStats* stats, std::vector<NodeRef>* out,
                  PathEvalMode mode) {
  // Scratch reused across the (very frequent) per-tuple path evaluations.
  // EvalPathInto never re-enters itself, so the thread-local scratch cannot
  // be aliased.
  static thread_local std::vector<NodeRef> current;
  static thread_local std::vector<NodeRef> next;
  current.clear();
  // Every node reachable from the single context (or its document root)
  // stays in the context's document, so documents, step names and the index
  // resolve once per step instead of per context node.
  const DocId doc_id = context.doc;
  const Document& doc = store.document(doc_id);
  current.push_back(path.absolute() ? NodeRef{doc_id, doc.root()} : context);
  const DocumentIndex* index =
      mode == PathEvalMode::kIndexed ? &store.index(doc_id) : nullptr;
  // Invariant at every step boundary: `current` is sorted in document order
  // and duplicate-free. `nested` tracks whether it may contain an
  // ancestor-descendant pair — the only configuration whose step outputs
  // can come out of order or duplicated and need re-normalizing.
  bool nested = false;
  const std::vector<Step>& steps = path.steps();
  for (size_t si = 0; si < steps.size(); ++si) {
    const Step& step = steps[si];
    if (stats != nullptr) ++stats->steps_evaluated;
    next.clear();
    uint32_t name_id =
        step.wildcard() ? UINT32_MAX : doc.names().Find(step.name);
    if (index != nullptr && step.axis == Axis::kDescendant) {
      // Range scans emit document order duplicate-free by construction,
      // even from nested contexts (the monotone list cursor).
      IndexedDescendantStep(doc, doc_id, *index, step, name_id, current,
                            &next, stats);
    } else {
      for (const NodeRef& ref : current) {
        if (index != nullptr &&
            TryIndexedDirectStep(doc, doc_id, *index, step, name_id, ref.id,
                                 &next, stats)) {
          continue;
        }
        ApplyStep(doc, doc_id, step, name_id, ref.id, &next, stats);
      }
      if (current.size() > 1 && nested) {
        // Nested contexts: a descendant walk re-emits the inner
        // context's matches (duplicates), and child/attribute/text outputs
        // of the ancestor interleave around the inner context's outputs
        // (order). Disjoint contexts need neither — their outputs
        // concatenate in document order.
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
      }
    }
    if (si + 1 < steps.size()) {
      // Only a descendant step, or any step from already-nested contexts,
      // can introduce an ancestor-descendant pair.
      bool could_nest = step.axis == Axis::kDescendant || nested;
      nested = could_nest && next.size() > 1 && HasNestedPair(doc, next);
    }
    current.swap(next);
  }
  out->assign(current.begin(), current.end());
}

std::vector<NodeRef> EvalPath(const Store& store, const Path& path,
                              NodeRef context, XPathStats* stats,
                              PathEvalMode mode) {
  std::vector<NodeRef> out;
  EvalPathInto(store, path, context, stats, &out, mode);
  return out;
}

std::vector<NodeRef> EvalPath(const Store& store, const Path& path,
                              std::span<const NodeRef> context,
                              XPathStats* stats, PathEvalMode mode) {
  std::vector<NodeRef> out;
  std::vector<NodeRef> one;
  for (const NodeRef& ref : context) {
    EvalPathInto(store, path, ref, stats, &one, mode);
    out.insert(out.end(), one.begin(), one.end());
  }
  // Each per-context result is sorted and duplicate-free already; the merge
  // is only needed when concatenation broke strict document order
  // (overlapping context subtrees, or contexts given out of order).
  bool ordered = true;
  for (size_t i = 0; i + 1 < out.size(); ++i) {
    if (!(out[i] < out[i + 1])) {
      ordered = false;
      break;
    }
  }
  if (!ordered) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

}  // namespace nalq::xml
