// The query shapes the workloads send: the paper's Q1-Q6 (Sec. 5), the
// DBLP variant E1b, and three correlated shapes N1-N3 that no equivalence
// unnests, so the cost chooser keeps them nested.
#ifndef NALQ_PERFBENCH_SHAPES_H_
#define NALQ_PERFBENCH_SHAPES_H_

#include <string>
#include <vector>

namespace perfbench {

enum class Role { kBib, kReviews, kPrices, kBids, kDblp, kCatalog };

/// File name of a document role, e.g. "bib.xml"; tenants prefix it.
std::string RoleFile(Role role);

struct Shape {
  const char* id;
  /// Query template: {bib} {reviews} {prices} {bids} {dblp} {catalog} name
  /// documents and {c} the shape's constant.
  const char* text;
  std::vector<Role> reads;
  /// Default value of {c}, and the values a varied request draws from;
  /// empty for shapes without a constant.
  int constant;
  std::vector<int> constant_choices;
};

const std::vector<Shape>& AllShapes();
/// Index into AllShapes() of the shape named `id`; throws if unknown.
int ShapeIndex(const std::string& id);

/// The query text of `shape` over the documents named `doc_prefix` +
/// RoleFile(role), with {c} = `constant`. A non-empty `var_prefix` is put
/// in front of every variable name, which makes the text new without
/// changing what it computes.
std::string Instantiate(const Shape& shape, const std::string& doc_prefix,
                        int constant, const std::string& var_prefix);

}  // namespace perfbench

#endif  // NALQ_PERFBENCH_SHAPES_H_
