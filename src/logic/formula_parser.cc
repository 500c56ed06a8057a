#include "logic/formula_parser.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "util/nesting.h"
#include "util/string_util.h"

namespace opcqa {

namespace {

enum class TokKind {
  kIdent,
  kLParen,
  kRParen,
  kComma,
  kEquals,
  kNotEquals,
  kAnd,
  kOr,
  kNot,
  kArrow,
  kDefine,  // :=
  kDot,
  kColon,
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          ++pos_;
        }
        std::string word(text_.substr(start, pos_ - start));
        if (word == "and") {
          tokens.push_back({TokKind::kAnd, word});
        } else if (word == "or") {
          tokens.push_back({TokKind::kOr, word});
        } else if (word == "not") {
          tokens.push_back({TokKind::kNot, word});
        } else {
          tokens.push_back({TokKind::kIdent, word});
        }
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
        tokens.push_back(
            {TokKind::kIdent, std::string(text_.substr(start, pos_ - start))});
        continue;
      }
      switch (c) {
        case '(':
          tokens.push_back({TokKind::kLParen, "("});
          ++pos_;
          break;
        case ')':
          tokens.push_back({TokKind::kRParen, ")"});
          ++pos_;
          break;
        case ',':
          tokens.push_back({TokKind::kComma, ","});
          ++pos_;
          break;
        case '&':
          tokens.push_back({TokKind::kAnd, "&"});
          ++pos_;
          break;
        case '|':
          tokens.push_back({TokKind::kOr, "|"});
          ++pos_;
          break;
        case '=':
          tokens.push_back({TokKind::kEquals, "="});
          ++pos_;
          break;
        case '.':
          tokens.push_back({TokKind::kDot, "."});
          ++pos_;
          break;
        case '!':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
            tokens.push_back({TokKind::kNotEquals, "!="});
            pos_ += 2;
          } else {
            tokens.push_back({TokKind::kNot, "!"});
            ++pos_;
          }
          break;
        case '-':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
            tokens.push_back({TokKind::kArrow, "->"});
            pos_ += 2;
          } else {
            return Status::InvalidArgument(
                StrCat("unexpected '-' at position ", pos_));
          }
          break;
        case ':':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
            tokens.push_back({TokKind::kDefine, ":="});
            pos_ += 2;
          } else {
            tokens.push_back({TokKind::kColon, ":"});
            ++pos_;
          }
          break;
        default:
          return Status::InvalidArgument(
              StrCat("unexpected character '", std::string(1, c),
                     "' at position ", pos_));
      }
    }
    tokens.push_back({TokKind::kEnd, ""});
    return tokens;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

// Recursive-descent parser. Precedence (low→high): -> , | , & , not.
// Parentheses, negations, quantifiers and the right operand of `->` each
// nest one level deeper; kMaxNestingDepth bounds the recursion.
class Parser {
 public:
  Parser(const Schema& schema, std::vector<Token> tokens,
         std::set<std::string> scope)
      : schema_(schema), tokens_(std::move(tokens)), scope_(std::move(scope)) {}

  Result<FormulaPtr> ParseToEnd() {
    Result<FormulaPtr> f = ParseFormula();
    if (!f.ok()) return f;
    if (Peek().kind != TokKind::kEnd) {
      return Status::InvalidArgument(
          StrCat("trailing input starting at '", Peek().text, "'"));
    }
    return f;
  }

  Result<FormulaPtr> ParseFormula() { return ParseImplication(); }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Match(TokKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<FormulaPtr> ParseImplication() {
    Result<FormulaPtr> lhs = ParseDisjunction();
    if (!lhs.ok()) return lhs;
    if (Match(TokKind::kArrow)) {
      NestingGuard level(&depth_);
      if (Status deep = level.status(); !deep.ok()) return deep;
      Result<FormulaPtr> rhs = ParseImplication();  // right associative
      if (!rhs.ok()) return rhs;
      return Formula::Implies(std::move(lhs).value(), std::move(rhs).value());
    }
    return lhs;
  }

  Result<FormulaPtr> ParseDisjunction() {
    Result<FormulaPtr> first = ParseConjunction();
    if (!first.ok()) return first;
    std::vector<FormulaPtr> parts{std::move(first).value()};
    while (Match(TokKind::kOr)) {
      Result<FormulaPtr> next = ParseConjunction();
      if (!next.ok()) return next;
      parts.push_back(std::move(next).value());
    }
    return Formula::Or(std::move(parts));
  }

  Result<FormulaPtr> ParseConjunction() {
    Result<FormulaPtr> first = ParseUnary();
    if (!first.ok()) return first;
    std::vector<FormulaPtr> parts{std::move(first).value()};
    while (Peek().kind == TokKind::kAnd || Peek().kind == TokKind::kComma) {
      Advance();
      Result<FormulaPtr> next = ParseUnary();
      if (!next.ok()) return next;
      parts.push_back(std::move(next).value());
    }
    return Formula::And(std::move(parts));
  }

  Result<FormulaPtr> ParseUnary() {
    if (Match(TokKind::kNot)) {
      NestingGuard level(&depth_);
      if (Status deep = level.status(); !deep.ok()) return deep;
      Result<FormulaPtr> child = ParseUnary();
      if (!child.ok()) return child;
      return Formula::Not(std::move(child).value());
    }
    if (Peek().kind == TokKind::kIdent &&
        (Peek().text == "exists" || Peek().text == "forall")) {
      return ParseQuantifier();
    }
    if (Match(TokKind::kLParen)) {
      NestingGuard level(&depth_);
      if (Status deep = level.status(); !deep.ok()) return deep;
      Result<FormulaPtr> inner = ParseFormula();
      if (!inner.ok()) return inner;
      if (!Match(TokKind::kRParen)) {
        return Status::InvalidArgument("expected ')'");
      }
      return inner;
    }
    if (Peek().kind == TokKind::kIdent) {
      if (Peek().text == "true") {
        Advance();
        return Formula::True();
      }
      if (Peek().text == "false") {
        Advance();
        return Formula::False();
      }
      return ParseAtomOrEquality();
    }
    return Status::InvalidArgument(
        StrCat("unexpected token '", Peek().text, "'"));
  }

  Result<FormulaPtr> ParseQuantifier() {
    bool existential = Advance().text == "exists";
    std::vector<VarId> vars;
    std::vector<std::string> names;
    do {
      if (Peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected variable after quantifier");
      }
      std::string name = Advance().text;
      vars.push_back(Var(name));
      names.push_back(name);
    } while (Match(TokKind::kComma));
    // Optional '.' or ':' between the variable list and the body.
    if (!Match(TokKind::kDot)) Match(TokKind::kColon);
    // The quantified names enter scope for the body only.
    NestingGuard level(&depth_);
    if (Status deep = level.status(); !deep.ok()) return deep;
    std::vector<std::string> added;
    for (const std::string& name : names) {
      if (scope_.insert(name).second) added.push_back(name);
    }
    Result<FormulaPtr> body = ParseUnary();
    for (const std::string& name : added) scope_.erase(name);
    if (!body.ok()) return body;
    return existential ? Formula::Exists(std::move(vars),
                                         std::move(body).value())
                       : Formula::Forall(std::move(vars),
                                         std::move(body).value());
  }

  // Identifiers in scope are variables; identifiers that merely *look*
  // like variables (s..z convention) but are not declared are almost
  // always accidental free variables, so they are rejected instead of
  // being silently read as constants. Everything else is a constant.
  Result<Term> MakeTerm(const std::string& name) {
    if (scope_.count(name) > 0) return Term::MakeVar(name);
    bool variable_like = !name.empty() && name[0] >= 's' && name[0] <= 'z' &&
                         std::all_of(name.begin() + 1, name.end(),
                                     [](char c) {
                                       return std::isdigit(
                                                  static_cast<unsigned char>(
                                                      c)) ||
                                              c == '_';
                                     });
    if (variable_like) {
      return Status::InvalidArgument(
          StrCat("undeclared variable '", name,
                 "': declare it in the query head or quantify it"));
    }
    return Term::MakeConst(name);
  }

  Result<FormulaPtr> ParseAtomOrEquality() {
    std::string first = Advance().text;
    if (Peek().kind == TokKind::kLParen) {
      // Atom: Relation(term, ..., term)
      PredId pred = schema_.FindRelation(first);
      if (pred == Schema::kNotFound) {
        return Status::NotFound(StrCat("unknown relation: ", first));
      }
      Advance();  // consume '('
      std::vector<Term> terms;
      if (Peek().kind != TokKind::kRParen) {
        do {
          if (Peek().kind != TokKind::kIdent) {
            return Status::InvalidArgument(
                StrCat("expected term in atom ", first));
          }
          Result<Term> term = MakeTerm(Advance().text);
          if (!term.ok()) return term.status();
          terms.push_back(*term);
        } while (Match(TokKind::kComma));
      }
      if (!Match(TokKind::kRParen)) {
        return Status::InvalidArgument(StrCat("expected ')' in atom ", first));
      }
      if (terms.size() != schema_.Arity(pred)) {
        return Status::InvalidArgument(
            StrCat("arity mismatch for ", first, ": expected ",
                   schema_.Arity(pred), " got ", terms.size()));
      }
      return Formula::MakeAtom(Atom(pred, std::move(terms)));
    }
    // Equality / inequality: term (=|!=) term.
    Result<Term> lhs = MakeTerm(first);
    if (!lhs.ok()) return lhs.status();
    if (Match(TokKind::kEquals)) {
      if (Peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected term after '='");
      }
      Result<Term> rhs = MakeTerm(Advance().text);
      if (!rhs.ok()) return rhs.status();
      return Formula::Equals(*lhs, *rhs);
    }
    if (Match(TokKind::kNotEquals)) {
      if (Peek().kind != TokKind::kIdent) {
        return Status::InvalidArgument("expected term after '!='");
      }
      Result<Term> rhs = MakeTerm(Advance().text);
      if (!rhs.ok()) return rhs.status();
      return Formula::Not(Formula::Equals(*lhs, *rhs));
    }
    return Status::InvalidArgument(
        StrCat("expected '(', '=' or '!=' after '", first, "'"));
  }

  const Schema& schema_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::set<std::string> scope_;
  size_t depth_ = 0;
};

}  // namespace

Result<FormulaPtr> ParseFormula(const Schema& schema, std::string_view text,
                                const std::vector<std::string>& free_vars) {
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  std::set<std::string> scope(free_vars.begin(), free_vars.end());
  Parser parser(schema, std::move(tokens).value(), std::move(scope));
  return parser.ParseToEnd();
}

Result<Query> ParseQuery(const Schema& schema, std::string_view text) {
  size_t define = text.find(":=");
  if (define == std::string_view::npos) {
    return Status::InvalidArgument("query must have the form Head := Body");
  }
  std::string_view head_text = TrimView(text.substr(0, define));
  std::string_view body_text = TrimView(text.substr(define + 2));
  size_t open = head_text.find('(');
  if (open == std::string_view::npos || head_text.back() != ')') {
    return Status::InvalidArgument(
        StrCat("malformed query head: ", head_text));
  }
  std::string name = Trim(head_text.substr(0, open));
  if (!IsIdentifier(name)) {
    return Status::InvalidArgument(StrCat("invalid query name: ", name));
  }
  std::string_view vars_text =
      head_text.substr(open + 1, head_text.size() - open - 2);
  std::vector<std::string> var_names;
  std::vector<VarId> head_vars;
  for (const std::string& piece : SplitTopLevel(vars_text, ',')) {
    std::string trimmed = Trim(piece);
    if (trimmed.empty()) continue;
    if (!IsIdentifier(trimmed)) {
      return Status::InvalidArgument(
          StrCat("invalid head variable: ", trimmed));
    }
    if (std::find(var_names.begin(), var_names.end(), trimmed) !=
        var_names.end()) {
      return Status::InvalidArgument(
          StrCat("duplicate head variable: ", trimmed));
    }
    var_names.push_back(trimmed);
    head_vars.push_back(Var(trimmed));
  }
  Result<FormulaPtr> body = ParseFormula(schema, body_text, var_names);
  if (!body.ok()) return body.status();
  FormulaPtr formula = std::move(body).value();
  for (VarId v : formula->FreeVariables()) {
    if (std::find(head_vars.begin(), head_vars.end(), v) == head_vars.end()) {
      return Status::InvalidArgument(
          StrCat("body variable ", VarName(v), " not declared in the head"));
    }
  }
  return Query(std::move(name), std::move(head_vars), std::move(formula));
}

}  // namespace opcqa
