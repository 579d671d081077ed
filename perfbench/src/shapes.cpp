#include "shapes.h"

#include <cctype>
#include <stdexcept>

namespace perfbench {

std::string RoleFile(Role role) {
  switch (role) {
    case Role::kBib: return "bib.xml";
    case Role::kReviews: return "reviews.xml";
    case Role::kPrices: return "prices.xml";
    case Role::kBids: return "bids.xml";
    case Role::kDblp: return "dblp.xml";
    case Role::kCatalog: return "catalog.xml";
  }
  return "";
}

const std::vector<Shape>& AllShapes() {
  static const std::vector<Shape> shapes = {
      {"Q1", R"(
  let $d1 := doc("{bib}")
  for $a1 in distinct-values($d1//author)
  return
    <author>
      <name>{ $a1 }</name>
      {
        let $d2 := doc("{bib}")
        for $b2 in $d2//book[$a1 = author]
        return $b2/title
      }
    </author>)",
       {Role::kBib}, 0, {}},
      {"Q2", R"(
  let $d1 := doc("{prices}")
  for $t1 in distinct-values($d1//book/title)
  let $p1 := let $d2 := doc("{prices}")
             for $b2 in $d2//book
             let $t2 := $b2/title
             let $p2 := $b2/price
             let $c2 := decimal($p2)
             where $t1 = $t2
             return $c2
  return
    <minprice title="{ $t1 }"><price>{ min($p1) }</price></minprice>)",
       {Role::kPrices}, 0, {}},
      {"Q3", R"(
  let $d1 := document("{bib}")
  for $t1 in $d1//book/title
  where some $t2 in document("{reviews}")//entry/title
        satisfies $t1 = $t2
  return
    <book-with-review>{ $t1 }</book-with-review>)",
       {Role::kBib, Role::kReviews}, 0, {}},
      {"Q4", R"(
  let $d1 := doc("{bib}")
  for $b1 in $d1//book,
      $a1 in $b1/author
  where exists(
    for $b2 in $d1//book
    for $a2 in $b2/author
    where contains($a2, "Suciu") and $b1 = $b2
    return $b2)
  return
    <book>{ $a1 }</book>)",
       {Role::kBib}, 0, {}},
      {"Q5", R"(
  let $d1 := doc("{bib}")
  for $a1 in distinct-values($d1//author)
  where every $b2 in doc("{bib}")//book[author = $a1]
        satisfies $b2/@year > {c}
  return
    <new-author>{ $a1 }</new-author>)",
       {Role::kBib}, 1993, {1991, 1992, 1993, 1994, 1995, 1996, 1997, 1998}},
      {"Q6", R"(
  let $d1 := document("{bids}")
  for $i1 in distinct-values($d1//itemno)
  where count($d1//bidtuple[itemno = $i1]) >= {c}
  return
    <popular-item>{ $i1 }</popular-item>)",
       {Role::kBids}, 3, {2, 3, 4}},
      {"E1b", R"(
  let $d1 := doc("{dblp}")
  for $a1 in distinct-values($d1//author)
  return
    <author>
      <name>{ $a1 }</name>
      {
        let $d2 := doc("{dblp}")
        for $b2 in $d2//book[$a1 = author]
        return $b2/title
      }
    </author>)",
       {Role::kDblp}, 0, {}},
      {"N1", R"(
  let $d1 := doc("{catalog}")
  for $b1 in $d1//book
  return <b>{ count(for $b2 in $d1//book where $b2/@year < $b1/@year return $b2) }</b>)",
       {Role::kCatalog}, 0, {}},
      {"N2", R"(
  let $d1 := doc("{catalog}")
  for $a1 in distinct-values($d1//author)
  return <a>{ for $b2 in $d1//book where contains($b2/title, $a1) return $b2/title }</a>)",
       {Role::kCatalog}, 0, {}},
      {"N3", R"(
  let $d1 := doc("{catalog}")
  for $b1 in $d1//book
  let $n := count(for $b2 in $d1//book where $b2/publisher = $b1/publisher return $b2)
  where $n > 3
  return <p>{ $b1/title }</p>)",
       {Role::kCatalog}, 0, {}},
  };
  return shapes;
}

int ShapeIndex(const std::string& id) {
  const std::vector<Shape>& all = AllShapes();
  for (size_t i = 0; i < all.size(); ++i) {
    if (id == all[i].id) return static_cast<int>(i);
  }
  throw std::invalid_argument("unknown shape " + id);
}

namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

}  // namespace

std::string Instantiate(const Shape& shape, const std::string& doc_prefix,
                        int constant, const std::string& var_prefix) {
  static const std::pair<const char*, Role> kPlaceholders[] = {
      {"{bib}", Role::kBib},         {"{reviews}", Role::kReviews},
      {"{prices}", Role::kPrices},   {"{bids}", Role::kBids},
      {"{dblp}", Role::kDblp},       {"{catalog}", Role::kCatalog}};
  const std::string text = shape.text;
  std::string out;
  out.reserve(text.size() + 64);
  for (size_t i = 0; i < text.size();) {
    if (text[i] == '{') {
      bool replaced = false;
      for (const auto& [key, role] : kPlaceholders) {
        if (text.compare(i, std::char_traits<char>::length(key), key) == 0) {
          out += doc_prefix + RoleFile(role);
          i += std::char_traits<char>::length(key);
          replaced = true;
          break;
        }
      }
      if (!replaced && text.compare(i, 3, "{c}") == 0) {
        out += std::to_string(constant);
        i += 3;
        replaced = true;
      }
      if (replaced) continue;
    }
    out += text[i];
    if (text[i] == '$' && !var_prefix.empty() && i + 1 < text.size() &&
        IsNameChar(text[i + 1])) {
      out += var_prefix;
    }
    ++i;
  }
  return out;
}

}  // namespace perfbench
