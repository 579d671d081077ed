#include "xml/dtd.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <string>

namespace nalq::xml {

namespace {

Cardinality ApplyRepetition(Cardinality c, char rep) {
  switch (rep) {
    case '?':
      c.min = 0;
      break;
    case '*':
      c.min = 0;
      if (c.max > 0 || c.unbounded) c.unbounded = true;
      break;
    case '+':
      if (c.max > 0 || c.unbounded) c.unbounded = true;
      break;
    default:
      break;
  }
  return c;
}

/// Parser for content-model text, e.g. "(title, (author+ | editor+),
/// publisher, price)" or "(#PCDATA)".
class ModelParser {
 public:
  explicit ModelParser(std::string_view text) : in_(text) {}

  ContentModel Parse() {
    SkipWs();
    if (StartsWith("EMPTY")) {
      ContentModel m;
      m.kind = ContentModel::Kind::kEmpty;
      return m;
    }
    if (StartsWith("ANY")) {
      ContentModel m;
      m.kind = ContentModel::Kind::kAny;
      return m;
    }
    ContentModel m = ParseGroup(1);
    SkipWs();
    if (pos_ != in_.size()) Fail("trailing content-model text");
    return m;
  }

 private:
  [[noreturn]] void Fail(const std::string& message) {
    throw std::invalid_argument("DTD content model error: " + message +
                                " in '" + std::string(in_) + "'");
  }
  void SkipWs() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }
  bool StartsWith(std::string_view s) {
    if (in_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }
  char PeekRep() {
    if (pos_ < in_.size() &&
        (in_[pos_] == '?' || in_[pos_] == '*' || in_[pos_] == '+')) {
      return in_[pos_++];
    }
    return 0;
  }

  ContentModel ParseGroup(int depth) {
    if (depth > kMaxContentModelDepth) {
      Fail("groups nested deeper than " +
           std::to_string(kMaxContentModelDepth) + " levels");
    }
    SkipWs();
    if (pos_ >= in_.size() || in_[pos_] != '(') Fail("expected '('");
    ++pos_;
    std::vector<std::unique_ptr<ContentModel>> items;
    char separator = 0;
    for (;;) {
      items.push_back(std::make_unique<ContentModel>(ParseItem(depth)));
      SkipWs();
      if (pos_ >= in_.size()) Fail("unterminated group");
      char c = in_[pos_];
      if (c == ')') {
        ++pos_;
        break;
      }
      if (c != ',' && c != '|') Fail("expected ',' '|' or ')'");
      if (separator != 0 && separator != c) {
        Fail("mixed ',' and '|' at one level");
      }
      separator = c;
      ++pos_;
    }
    ContentModel group;
    if (items.size() == 1 && separator == 0) {
      group = std::move(*items[0]);
      // A repetition on the group wraps the single item's own repetition;
      // fold conservatively by keeping the stronger (outer) one below.
    } else {
      group.kind = separator == '|' ? ContentModel::Kind::kChoice
                                    : ContentModel::Kind::kSeq;
      group.children = std::move(items);
    }
    char rep = PeekRep();
    if (rep != 0) {
      if (group.repetition != 0) {
        // e.g. ((a+))* — compose: anything under '*' or with inner '+' and
        // outer '?' etc. Simplify to '*' when both present.
        group.repetition = '*';
      } else {
        group.repetition = rep;
      }
    }
    return group;
  }

  /// An item of a group at `depth`; a nested group is one level deeper.
  ContentModel ParseItem(int depth) {
    SkipWs();
    if (pos_ < in_.size() && in_[pos_] == '(') return ParseGroup(depth + 1);
    if (StartsWith("#PCDATA")) {
      ContentModel m;
      m.kind = ContentModel::Kind::kPcdata;
      return m;
    }
    size_t start = pos_;
    while (pos_ < in_.size() &&
           (std::isalnum(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '_' || in_[pos_] == '-' || in_[pos_] == '.' ||
            in_[pos_] == ':')) {
      ++pos_;
    }
    if (pos_ == start) Fail("expected element name");
    ContentModel m;
    m.kind = ContentModel::Kind::kName;
    m.name = std::string(in_.substr(start, pos_ - start));
    m.repetition = PeekRep();
    return m;
  }

  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace

Cardinality ContentModel::CardinalityOf(std::string_view child_name) const {
  Cardinality c;
  switch (kind) {
    case Kind::kPcdata:
    case Kind::kEmpty:
      return c;
    case Kind::kAny:
      c.min = 0;
      c.unbounded = true;
      return c;
    case Kind::kName:
      if (name == child_name) {
        c.min = 1;
        c.max = 1;
      }
      return ApplyRepetition(c, repetition);
    case Kind::kSeq: {
      for (const auto& item : children) {
        Cardinality ci = item->CardinalityOf(child_name);
        c.min += ci.min;
        c.max += ci.max;
        c.unbounded = c.unbounded || ci.unbounded;
      }
      return ApplyRepetition(c, repetition);
    }
    case Kind::kChoice: {
      bool first = true;
      for (const auto& item : children) {
        Cardinality ci = item->CardinalityOf(child_name);
        if (first) {
          c = ci;
          first = false;
        } else {
          c.min = std::min(c.min, ci.min);
          c.max = std::max(c.max, ci.max);
          c.unbounded = c.unbounded || ci.unbounded;
        }
      }
      return ApplyRepetition(c, repetition);
    }
  }
  return c;
}

void ContentModel::CollectNames(std::set<std::string>* out) const {
  if (kind == Kind::kName) out->insert(name);
  for (const auto& child : children) child->CollectNames(out);
}

Dtd Dtd::Parse(std::string_view text) {
  Dtd dtd;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t open = text.find("<!", pos);
    if (open == std::string_view::npos) break;
    size_t close = text.find('>', open);
    if (close == std::string_view::npos) {
      throw std::invalid_argument("unterminated DTD declaration");
    }
    std::string_view decl = text.substr(open + 2, close - open - 2);
    pos = close + 1;
    auto read_name = [](std::string_view s, size_t* i) {
      while (*i < s.size() && std::isspace(static_cast<unsigned char>(s[*i])))
        ++*i;
      size_t start = *i;
      while (*i < s.size() &&
             !std::isspace(static_cast<unsigned char>(s[*i]))) {
        ++*i;
      }
      return std::string(s.substr(start, *i - start));
    };
    if (decl.substr(0, 7) == "ELEMENT") {
      size_t i = 7;
      std::string name = read_name(decl, &i);
      while (i < decl.size() &&
             std::isspace(static_cast<unsigned char>(decl[i]))) {
        ++i;
      }
      ElementDecl element;
      element.name = name;
      element.model = ModelParser(decl.substr(i)).Parse();
      if (dtd.first_declared_.empty()) dtd.first_declared_ = name;
      dtd.elements_[name] = std::move(element);
    } else if (decl.substr(0, 7) == "ATTLIST") {
      size_t i = 7;
      std::string element_name = read_name(decl, &i);
      // Each attribute declaration: name TYPE default.
      while (i < decl.size()) {
        std::string attr = read_name(decl, &i);
        if (attr.empty()) break;
        std::string type = read_name(decl, &i);
        std::string dflt = read_name(decl, &i);
        (void)type;
        (void)dflt;
        auto it = dtd.elements_.find(element_name);
        if (it != dtd.elements_.end()) {
          it->second.attributes.push_back(attr);
        } else {
          ElementDecl element;
          element.name = element_name;
          element.attributes.push_back(attr);
          dtd.elements_[element_name] = std::move(element);
        }
      }
    }
    // Other declarations (ENTITY, NOTATION) ignored.
  }
  // Root: declared element not mentioned in any content model; fall back to
  // the first declaration.
  std::set<std::string> mentioned;
  for (const auto& [name, element] : dtd.elements_) {
    element.model.CollectNames(&mentioned);
  }
  dtd.root_ = dtd.first_declared_;
  for (const auto& [name, element] : dtd.elements_) {
    if (mentioned.count(name) == 0) {
      dtd.root_ = name;
      break;
    }
  }
  return dtd;
}

bool Dtd::HasElement(std::string_view name) const {
  return elements_.find(name) != elements_.end();
}

const ElementDecl* Dtd::Find(std::string_view name) const {
  auto it = elements_.find(name);
  return it == elements_.end() ? nullptr : &it->second;
}

std::vector<std::string> Dtd::ParentsOf(std::string_view child) const {
  std::vector<std::string> parents;
  for (const auto& [name, element] : elements_) {
    std::set<std::string> names;
    element.model.CollectNames(&names);
    if (names.count(std::string(child)) != 0) parents.push_back(name);
  }
  return parents;
}

bool Dtd::OccursOnlyUnder(std::string_view child,
                          std::string_view parent) const {
  std::vector<std::string> parents = ParentsOf(child);
  if (parents.empty()) return false;
  return parents.size() == 1 && parents[0] == parent;
}

std::optional<Cardinality> Dtd::ChildCardinality(std::string_view parent,
                                                 std::string_view child) const {
  const ElementDecl* decl = Find(parent);
  if (decl == nullptr) return std::nullopt;
  return decl->model.CardinalityOf(child);
}

bool Dtd::HasAttribute(std::string_view element, std::string_view attr) const {
  const ElementDecl* decl = Find(element);
  if (decl == nullptr) return false;
  for (const std::string& a : decl->attributes) {
    if (a == attr) return true;
  }
  return false;
}

bool Dtd::SingleNodePath(const Path& context, const Path& rel,
                         bool exactly_one) const {
  // The element the context path selects; empty for the document node.
  std::string parent;
  if (!context.empty()) {
    const Step& last = context.steps().back();
    if ((last.axis != Axis::kChild && last.axis != Axis::kDescendant) ||
        last.wildcard()) {
      return false;
    }
    parent = last.name;
  }
  const std::vector<Step>& steps = rel.steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    if (s.axis == Axis::kAttribute) {
      // An element carries at most one attribute of a name; `@*` selects
      // all of them.
      return i + 1 == steps.size() && !parent.empty() && !s.wildcard() &&
             (!exactly_one || HasAttribute(parent, s.name));
    }
    if (s.axis != Axis::kChild || s.wildcard()) return false;
    if (parent.empty()) {
      // The document node's one element child is the root.
      if (s.name != root()) return false;
    } else {
      std::optional<Cardinality> c = ChildCardinality(parent, s.name);
      if (!c.has_value() ||
          !(exactly_one ? c->exactly_one() : c->at_most_one())) {
        return false;
      }
    }
    parent = s.name;
  }
  return true;
}

namespace {

/// Does the step sequence steps[si..] match the name chain chain[ci..]
/// (chain runs root-to-target)? Descendant steps may skip ancestors.
bool MatchSteps(const std::vector<Step>& steps, size_t si,
                const std::vector<std::string>& chain, size_t ci) {
  if (si == steps.size()) return ci == chain.size();
  if (ci == chain.size()) return false;
  const Step& step = steps[si];
  bool name_ok = step.wildcard() || step.name == chain[ci];
  switch (step.axis) {
    case Axis::kChild:
      return name_ok && MatchSteps(steps, si + 1, chain, ci + 1);
    case Axis::kDescendant:
      // Either this chain element satisfies the step, or skip it.
      if (name_ok && MatchSteps(steps, si + 1, chain, ci + 1)) return true;
      return MatchSteps(steps, si, chain, ci + 1);
    case Axis::kAttribute:
    case Axis::kText:
      return false;  // handled by callers before chain matching
  }
  return false;
}

}  // namespace

bool Dtd::PathSelectsAllOf(const Path& path) const {
  if (!path.absolute() || path.empty()) return false;
  const Step& last = path.steps().back();
  if (last.axis == Axis::kAttribute || last.axis == Axis::kText ||
      last.wildcard()) {
    return false;
  }
  const std::string& target = last.name;
  if (!HasElement(target)) return false;
  // Enumerate every DTD-derivable ancestor chain root → ... → target and
  // check the path matches each. Cycle-guard: bail out (false) on recursive
  // DTDs deeper than kMaxDepth.
  constexpr size_t kMaxDepth = 32;
  bool all_match = true;
  std::vector<std::string> chain;  // built target-to-root, reversed to match
  auto recurse = [&](auto&& self, const std::string& element) -> void {
    if (!all_match) return;
    if (chain.size() > kMaxDepth) {
      all_match = false;
      return;
    }
    chain.push_back(element);
    if (element == root_) {
      std::vector<std::string> top_down(chain.rbegin(), chain.rend());
      if (!MatchSteps(path.steps(), 0, top_down, 0)) all_match = false;
    } else {
      std::vector<std::string> parents = ParentsOf(element);
      if (parents.empty()) {
        // Unreachable element: no instances, vacuously fine.
      }
      for (const std::string& parent : parents) {
        self(self, parent);
        if (!all_match) break;
      }
    }
    chain.pop_back();
  };
  recurse(recurse, target);
  return all_match;
}

bool Dtd::PathsSelectSameNodes(const Path& general,
                               const Path& specific) const {
  if (!general.absolute() || !specific.absolute()) return false;
  if (general.empty() || specific.empty()) return false;
  const Step& g = general.steps().back();
  const Step& s = specific.steps().back();
  if (g.name != s.name || g.axis == Axis::kAttribute ||
      s.axis == Axis::kAttribute) {
    return false;
  }
  // Both must select all occurrences of the shared target name.
  return PathSelectsAllOf(general) && PathSelectsAllOf(specific);
}

}  // namespace nalq::xml
