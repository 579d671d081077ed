#include "xquery/parser.h"

#include <cctype>
#include <string>

#include "xquery/lexer.h"

namespace nalq::xquery {

namespace {

bool IsWhitespaceOnly(std::string_view s) {
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

class Parser {
 public:
  explicit Parser(std::string_view input) : lex_(input) {}

  AstPtr Parse() {
    AstPtr e = ParseExprSingle();
    if (lex_.Peek().kind != TokKind::kEof) {
      Fail("trailing input after query");
    }
    return e;
  }

 private:
  [[noreturn]] void Fail(const std::string& message) {
    throw ParseError(message + " (at offset " +
                     std::to_string(lex_.Peek().begin) + ")");
  }

  /// One nesting level (kMaxQueryNesting) for the lifetime of a recursive
  /// parse call. Past the limit the parse is abandoned, so the count the
  /// throwing constructor leaves behind is never read.
  class Nesting {
   public:
    Nesting(Parser* parser, size_t offset) : parser_(parser) {
      if (++parser_->depth_ > kMaxQueryNesting) {
        parser_->FailRaw("expression nested deeper than " +
                             std::to_string(kMaxQueryNesting) + " levels",
                         offset);
      }
    }
    ~Nesting() { --parser_->depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

   private:
    Parser* parser_;
  };

  Token Expect(TokKind kind, const char* what) {
    if (lex_.Peek().kind != kind) Fail(std::string("expected ") + what);
    return lex_.Next();
  }

  bool Accept(TokKind kind) {
    if (lex_.Peek().kind == kind) {
      lex_.Next();
      return true;
    }
    return false;
  }

  AstPtr ParseExprSingle() {
    Nesting nesting(this, lex_.PeekBegin());
    if (lex_.PeekIsName("for") || lex_.PeekIsName("let")) return ParseFlwr();
    if (lex_.PeekIsName("some") || lex_.PeekIsName("every")) {
      return ParseQuantified();
    }
    if (lex_.PeekIsName("if")) return ParseConditional();
    return ParseOr();
  }

  AstPtr ParseConditional() {
    lex_.Next();  // 'if'
    Expect(TokKind::kLParen, "'(' after if");
    AstPtr cond = ParseExprSingle();
    Expect(TokKind::kRParen, "')'");
    if (!lex_.PeekIsName("then")) Fail("expected 'then'");
    lex_.Next();
    AstPtr then_e = ParseExprSingle();
    if (!lex_.PeekIsName("else")) Fail("expected 'else'");
    lex_.Next();
    AstPtr else_e = ParseExprSingle();
    auto out = std::make_shared<Ast>();
    out->kind = AstKind::kCond;
    out->children = {std::move(cond), std::move(then_e), std::move(else_e)};
    return out;
  }

  AstPtr ParseFlwr() {
    auto flwr = std::make_shared<Ast>();
    flwr->kind = AstKind::kFlwr;
    for (;;) {
      if (lex_.PeekIsName("for")) {
        lex_.Next();
        for (;;) {
          Token var = Expect(TokKind::kVar, "variable after 'for'");
          if (!lex_.PeekIsName("in")) Fail("expected 'in'");
          lex_.Next();
          Clause c;
          c.kind = Clause::Kind::kFor;
          c.var = var.text;
          c.expr = ParseExprSingle();
          flwr->clauses.push_back(std::move(c));
          if (!Accept(TokKind::kComma)) break;
        }
        continue;
      }
      if (lex_.PeekIsName("let")) {
        lex_.Next();
        for (;;) {
          Token var = Expect(TokKind::kVar, "variable after 'let'");
          Expect(TokKind::kAssign, "':='");
          Clause c;
          c.kind = Clause::Kind::kLet;
          c.var = var.text;
          c.expr = ParseExprSingle();
          flwr->clauses.push_back(std::move(c));
          if (!Accept(TokKind::kComma)) break;
        }
        continue;
      }
      if (lex_.PeekIsName("where")) {
        lex_.Next();
        Clause c;
        c.kind = Clause::Kind::kWhere;
        c.expr = ParseExprSingle();
        flwr->clauses.push_back(std::move(c));
        continue;
      }
      break;
    }
    // Optional (stable) order by — compiled to the Sort operator.
    if (lex_.PeekIsName("stable")) {
      lex_.Next();
      if (!lex_.PeekIsName("order")) Fail("expected 'order' after 'stable'");
    }
    if (lex_.PeekIsName("order")) {
      lex_.Next();
      if (!lex_.PeekIsName("by")) Fail("expected 'by' after 'order'");
      lex_.Next();
      for (;;) {
        AstPtr key = ParseExprSingle();
        bool descending = false;
        if (lex_.PeekIsName("descending")) {
          descending = true;
          lex_.Next();
        } else if (lex_.PeekIsName("ascending")) {
          lex_.Next();
        }
        flwr->order_by.emplace_back(std::move(key), descending);
        if (!Accept(TokKind::kComma)) break;
      }
    }
    if (!lex_.PeekIsName("return")) Fail("expected 'return'");
    lex_.Next();
    flwr->ret = ParseExprSingle();
    return flwr;
  }

  AstPtr ParseQuantified() {
    auto q = std::make_shared<Ast>();
    q->kind = AstKind::kQuantified;
    Token kw = lex_.Next();
    q->quant = kw.text == "some" ? nal::QuantKind::kSome
                                 : nal::QuantKind::kEvery;
    Token var = Expect(TokKind::kVar, "variable after quantifier");
    q->qvar = var.text;
    if (!lex_.PeekIsName("in")) Fail("expected 'in'");
    lex_.Next();
    q->range = ParseExprSingle();
    if (!lex_.PeekIsName("satisfies")) Fail("expected 'satisfies'");
    lex_.Next();
    q->satisfies = ParseExprSingle();
    return q;
  }

  AstPtr ParseOr() {
    AstPtr lhs = ParseAnd();
    while (lex_.PeekIsName("or")) {
      lex_.Next();
      lhs = MakeOrAst(std::move(lhs), ParseAnd());
    }
    return lhs;
  }

  AstPtr ParseAnd() {
    AstPtr lhs = ParseComparison();
    while (lex_.PeekIsName("and")) {
      lex_.Next();
      lhs = MakeAndAst(std::move(lhs), ParseComparison());
    }
    return lhs;
  }

  AstPtr MakeArithAst(const char* op, AstPtr lhs, AstPtr rhs) {
    auto out = std::make_shared<Ast>();
    out->kind = AstKind::kArith;
    out->name = op;
    out->children = {std::move(lhs), std::move(rhs)};
    return out;
  }

  AstPtr ParseAdditive() {
    AstPtr lhs = ParseMultiplicative();
    for (;;) {
      if (Accept(TokKind::kPlus)) {
        lhs = MakeArithAst("+", std::move(lhs), ParseMultiplicative());
      } else if (Accept(TokKind::kMinus)) {
        lhs = MakeArithAst("-", std::move(lhs), ParseMultiplicative());
      } else {
        return lhs;
      }
    }
  }

  AstPtr ParseMultiplicative() {
    AstPtr lhs = ParsePathExpr();
    for (;;) {
      if (Accept(TokKind::kStar)) {
        lhs = MakeArithAst("*", std::move(lhs), ParsePathExpr());
      } else if (lex_.PeekIsName("div")) {
        lex_.Next();
        lhs = MakeArithAst("div", std::move(lhs), ParsePathExpr());
      } else if (lex_.PeekIsName("mod")) {
        lex_.Next();
        lhs = MakeArithAst("mod", std::move(lhs), ParsePathExpr());
      } else {
        return lhs;
      }
    }
  }

  AstPtr ParseComparison() {
    AstPtr lhs = ParseAdditive();
    nal::CmpOp op;
    switch (lex_.Peek().kind) {
      case TokKind::kEq:
        op = nal::CmpOp::kEq;
        break;
      case TokKind::kNe:
        op = nal::CmpOp::kNe;
        break;
      case TokKind::kLt:
        op = nal::CmpOp::kLt;
        break;
      case TokKind::kLe:
        op = nal::CmpOp::kLe;
        break;
      case TokKind::kGt:
        op = nal::CmpOp::kGt;
        break;
      case TokKind::kGe:
        op = nal::CmpOp::kGe;
        break;
      default: {
        // Word comparison operators eq/ne/lt/le/gt/ge.
        const Token& t = lex_.Peek();
        if (t.kind == TokKind::kName) {
          if (t.text == "eq") {
            op = nal::CmpOp::kEq;
          } else if (t.text == "ne") {
            op = nal::CmpOp::kNe;
          } else if (t.text == "lt") {
            op = nal::CmpOp::kLt;
          } else if (t.text == "le") {
            op = nal::CmpOp::kLe;
          } else if (t.text == "gt") {
            op = nal::CmpOp::kGt;
          } else if (t.text == "ge") {
            op = nal::CmpOp::kGe;
          } else {
            return lhs;
          }
          lex_.Next();
          return MakeCmpAst(op, std::move(lhs), ParseAdditive());
        }
        return lhs;
      }
    }
    lex_.Next();
    return MakeCmpAst(op, std::move(lhs), ParseAdditive());
  }

  /// PathExpr := ('/' | '//')? Primary (('/' | '//') Step)* | relative step
  AstPtr ParsePathExpr() {
    // Leading '/' or '//' → path from the context item (inside predicates).
    if (lex_.Peek().kind == TokKind::kSlash ||
        lex_.Peek().kind == TokKind::kSlashSlash) {
      return ParseSteps(MakeContextRef());
    }
    AstPtr base = ParsePrimary();
    if (lex_.Peek().kind == TokKind::kSlash ||
        lex_.Peek().kind == TokKind::kSlashSlash) {
      return ParseSteps(std::move(base));
    }
    return base;
  }

  AstPtr ParseSteps(AstPtr base) {
    std::vector<PathStepAst> steps;
    // If `base` is already a relative path (context step), extend it.
    if (base->kind == AstKind::kPathExpr) {
      steps = base->steps;
      base = base->children[0];
    }
    while (lex_.Peek().kind == TokKind::kSlash ||
           lex_.Peek().kind == TokKind::kSlashSlash) {
      bool descendant = lex_.Next().kind == TokKind::kSlashSlash;
      steps.push_back(ParseOneStep(descendant));
    }
    return MakePathAst(std::move(base), std::move(steps));
  }

  PathStepAst ParseOneStep(bool descendant) {
    PathStepAst step;
    step.axis = descendant ? xml::Axis::kDescendant : xml::Axis::kChild;
    if (Accept(TokKind::kAt)) {
      if (descendant) Fail("//@attribute is not supported");
      step.axis = xml::Axis::kAttribute;
    }
    if (Accept(TokKind::kStar)) {
      step.name = "*";
    } else {
      Token name = Expect(TokKind::kName, "step name");
      step.name = name.text;
      if (step.name == "text" && Accept(TokKind::kLParen)) {
        Expect(TokKind::kRParen, "')'");
        step.axis = xml::Axis::kText;
      }
    }
    if (Accept(TokKind::kLBracket)) {
      step.predicate = ParseExprSingle();
      Expect(TokKind::kRBracket, "']'");
    }
    return step;
  }

  AstPtr ParsePrimary() {
    const Token& t = lex_.Peek();
    switch (t.kind) {
      case TokKind::kVar: {
        Token var = lex_.Next();
        return MakeVarRef(var.text);
      }
      case TokKind::kString: {
        Token s = lex_.Next();
        return MakeLiteral(nal::Value(s.text));
      }
      case TokKind::kNumber: {
        Token n = lex_.Next();
        return MakeLiteral(n.is_integer
                               ? nal::Value(static_cast<int64_t>(n.number))
                               : nal::Value(n.number));
      }
      case TokKind::kLParen: {
        lex_.Next();
        if (Accept(TokKind::kRParen)) {
          // Empty sequence ().
          return MakeLiteral(nal::Value::FromItems({}));
        }
        AstPtr inner = ParseExprSingle();
        Expect(TokKind::kRParen, "')'");
        return inner;
      }
      case TokKind::kMinus: {
        // Unary minus: 0 - operand.
        Nesting nesting(this, lex_.PeekBegin());
        lex_.Next();
        return MakeArithAst("-", MakeLiteral(nal::Value(int64_t{0})),
                            ParsePathExpr());
      }
      case TokKind::kDot:
        lex_.Next();
        return MakeContextRef();
      case TokKind::kLt:
        return ParseElementCtor();
      case TokKind::kName: {
        Token name = lex_.Next();
        if (Accept(TokKind::kLParen)) {
          std::vector<AstPtr> args;
          if (lex_.Peek().kind != TokKind::kRParen) {
            for (;;) {
              args.push_back(ParseExprSingle());
              if (!Accept(TokKind::kComma)) break;
            }
          }
          Expect(TokKind::kRParen, "')'");
          return MakeFnCallAst(name.text, std::move(args));
        }
        // A bare name in expression position is a context-relative child
        // step (legal inside path predicates: book[author = $a]).
        std::vector<PathStepAst> steps;
        PathStepAst step;
        step.axis = xml::Axis::kChild;
        step.name = name.text;
        steps.push_back(std::move(step));
        AstPtr path = MakePathAst(MakeContextRef(), std::move(steps));
        return path;
      }
      case TokKind::kAt: {
        lex_.Next();
        PathStepAst step;
        step.axis = xml::Axis::kAttribute;
        step.name = Accept(TokKind::kStar)
                        ? "*"
                        : Expect(TokKind::kName, "attribute name after '@'")
                              .text;
        std::vector<PathStepAst> steps;
        steps.push_back(std::move(step));
        return MakePathAst(MakeContextRef(), std::move(steps));
      }
      default:
        Fail("expected expression");
    }
  }

  // ---- direct element constructors (raw character mode) ----------------

  AstPtr ParseElementCtor() {
    size_t start = lex_.PeekBegin();
    std::string_view in = lex_.input();
    size_t pos = start;
    AstPtr ctor = ParseCtorAt(in, &pos);
    lex_.ResetTo(pos);
    return ctor;
  }

  [[noreturn]] void FailRaw(const std::string& message, size_t pos) {
    throw ParseError(message + " (at offset " + std::to_string(pos) + ")");
  }

  void SkipRawWs(std::string_view in, size_t* pos) {
    while (*pos < in.size() &&
           std::isspace(static_cast<unsigned char>(in[*pos]))) {
      ++*pos;
    }
  }

  std::string ReadRawName(std::string_view in, size_t* pos) {
    size_t start = *pos;
    while (*pos < in.size() &&
           (std::isalnum(static_cast<unsigned char>(in[*pos])) ||
            in[*pos] == '_' || in[*pos] == '-' || in[*pos] == '.' ||
            in[*pos] == ':')) {
      ++*pos;
    }
    if (*pos == start) FailRaw("expected name in constructor", *pos);
    return std::string(in.substr(start, *pos - start));
  }

  /// Parses an enclosed expression starting at '{'; returns the AST and
  /// leaves *pos after the matching '}'.
  AstPtr ParseEnclosed(std::string_view in, size_t* pos) {
    ++*pos;  // consume '{'
    Parser subparser(in);
    subparser.lex_.ResetTo(*pos);
    subparser.depth_ = depth_;
    AstPtr e = subparser.ParseExprSingle();
    if (subparser.lex_.Peek().kind != TokKind::kRBrace) {
      FailRaw("expected '}' after enclosed expression",
              subparser.lex_.Peek().begin);
    }
    *pos = subparser.lex_.Peek().end;
    return e;
  }

  AstPtr ParseCtorAt(std::string_view in, size_t* pos) {
    Nesting nesting(this, *pos);
    if (in[*pos] != '<') FailRaw("expected '<'", *pos);
    ++*pos;
    auto ctor = std::make_shared<Ast>();
    ctor->kind = AstKind::kElementCtor;
    ctor->tag = ReadRawName(in, pos);
    // Attributes.
    for (;;) {
      SkipRawWs(in, pos);
      if (*pos >= in.size()) FailRaw("unterminated start tag", *pos);
      if (in[*pos] == '>') {
        ++*pos;
        break;
      }
      if (in[*pos] == '/' && *pos + 1 < in.size() && in[*pos + 1] == '>') {
        *pos += 2;
        return ctor;  // empty element
      }
      std::string attr_name = ReadRawName(in, pos);
      SkipRawWs(in, pos);
      if (*pos >= in.size() || in[*pos] != '=') {
        FailRaw("expected '=' in attribute", *pos);
      }
      ++*pos;
      SkipRawWs(in, pos);
      char quote = in[*pos];
      if (quote != '"' && quote != '\'') {
        FailRaw("expected quoted attribute value", *pos);
      }
      ++*pos;
      std::vector<CtorPart> parts;
      std::string literal;
      while (*pos < in.size() && in[*pos] != quote) {
        if (in[*pos] == '{') {
          if (!literal.empty()) {
            CtorPart p;
            p.is_literal = true;
            p.text = literal;
            parts.push_back(std::move(p));
            literal.clear();
          }
          CtorPart p;
          p.is_literal = false;
          p.expr = ParseEnclosed(in, pos);
          parts.push_back(std::move(p));
        } else {
          literal += in[(*pos)++];
        }
      }
      if (*pos >= in.size()) FailRaw("unterminated attribute value", *pos);
      ++*pos;
      if (!literal.empty()) {
        CtorPart p;
        p.is_literal = true;
        p.text = std::move(literal);
        parts.push_back(std::move(p));
      }
      ctor->attributes.emplace_back(attr_name, std::move(parts));
    }
    // Content.
    std::string literal;
    auto flush_literal = [&]() {
      if (literal.empty()) return;
      if (!IsWhitespaceOnly(literal)) {
        CtorPart p;
        p.is_literal = true;
        p.text = literal;
        ctor->content.push_back(std::move(p));
      }
      literal.clear();
    };
    for (;;) {
      if (*pos >= in.size()) FailRaw("unterminated element constructor", *pos);
      char c = in[*pos];
      if (c == '<') {
        if (*pos + 1 < in.size() && in[*pos + 1] == '/') {
          flush_literal();
          *pos += 2;
          std::string close = ReadRawName(in, pos);
          if (close != ctor->tag) {
            FailRaw("mismatched constructor end tag </" + close + ">", *pos);
          }
          SkipRawWs(in, pos);
          if (*pos >= in.size() || in[*pos] != '>') {
            FailRaw("expected '>'", *pos);
          }
          ++*pos;
          return ctor;
        }
        // Nested constructor: parse recursively and splice it in as an
        // expression part (translation renders it via its own commands).
        flush_literal();
        CtorPart p;
        p.is_literal = false;
        p.expr = ParseCtorAt(in, pos);
        ctor->content.push_back(std::move(p));
        continue;
      }
      if (c == '{') {
        flush_literal();
        CtorPart p;
        p.is_literal = false;
        p.expr = ParseEnclosed(in, pos);
        ctor->content.push_back(std::move(p));
        continue;
      }
      literal += c;
      ++*pos;
    }
  }

  Lexer lex_;
  int depth_ = 0;  ///< open Nesting levels, enclosing parsers' included
};

}  // namespace

AstPtr ParseQuery(std::string_view text) { return Parser(text).Parse(); }

}  // namespace nalq::xquery
