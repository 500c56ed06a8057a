#include "sql/parser.h"

#include <utility>

#include "sql/lexer.h"
#include "util/nesting.h"
#include "util/string_util.h"

namespace opcqa {
namespace sql {
namespace {

// Recursive descent. A parenthesized statement, a derived table, a NOT
// and a parenthesized condition each nest one level deeper;
// kMaxNestingDepth bounds the recursion.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<StatementPtr> ParseStatement() {
    Result<StatementPtr> stmt = ParseSetExpression();
    if (!stmt.ok()) return stmt;
    if (Peek().kind == TokenKind::kSemicolon) Advance();
    if (Peek().kind != TokenKind::kEnd) {
      return Error(StrCat("unexpected ", TokenKindName(Peek().kind),
                          " after end of statement"));
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t index = pos_ + ahead;
    if (index >= tokens_.size()) index = tokens_.size() - 1;  // kEnd
    return tokens_[index];
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Match(TokenKind kind) {
    if (Peek().kind != kind) return false;
    Advance();
    return true;
  }
  Status Error(std::string message) const {
    const Token& token = Peek();
    return Status::InvalidArgument(StrCat(message, " at line ", token.line,
                                          ", column ", token.column));
  }
  Status Expect(TokenKind kind) {
    if (Match(kind)) return Status::Ok();
    return Error(StrCat("expected ", TokenKindName(kind), ", found ",
                        TokenKindName(Peek().kind)));
  }

  // statement := set_term ((UNION | EXCEPT) set_term)*
  Result<StatementPtr> ParseSetExpression() {
    Result<StatementPtr> left = ParseSetTerm();
    if (!left.ok()) return left;
    StatementPtr result = left.value();
    while (Peek().kind == TokenKind::kUnion ||
           Peek().kind == TokenKind::kExcept) {
      Statement::Kind kind = Peek().kind == TokenKind::kUnion
                                 ? Statement::Kind::kUnion
                                 : Statement::Kind::kExcept;
      Advance();
      if (Peek().kind == TokenKind::kAll) {
        return Error("UNION/EXCEPT ALL is not supported (set semantics)");
      }
      Result<StatementPtr> right = ParseSetTerm();
      if (!right.ok()) return right;
      result = Statement::MakeSetOp(kind, result, right.value());
    }
    return result;
  }

  // set_term := select_stmt (INTERSECT select_stmt)*
  Result<StatementPtr> ParseSetTerm() {
    Result<StatementPtr> left = ParseSelectOrParen();
    if (!left.ok()) return left;
    StatementPtr result = left.value();
    while (Peek().kind == TokenKind::kIntersect) {
      Advance();
      if (Peek().kind == TokenKind::kAll) {
        return Error("INTERSECT ALL is not supported (set semantics)");
      }
      Result<StatementPtr> right = ParseSelectOrParen();
      if (!right.ok()) return right;
      result = Statement::MakeSetOp(Statement::Kind::kIntersect, result,
                                    right.value());
    }
    return result;
  }

  Result<StatementPtr> ParseSelectOrParen() {
    if (Peek().kind == TokenKind::kLParen) {
      Advance();
      NestingGuard level(&depth_);
      if (Status deep = level.status(); !deep.ok()) return deep;
      Result<StatementPtr> inner = ParseSetExpression();
      if (!inner.ok()) return inner;
      Status closed = Expect(TokenKind::kRParen);
      if (!closed.ok()) return closed;
      return inner;
    }
    return ParseSelect();
  }

  Result<StatementPtr> ParseSelect() {
    Status status = Expect(TokenKind::kSelect);
    if (!status.ok()) return status;

    SelectCore core;
    core.distinct = Match(TokenKind::kDistinct);

    if (Match(TokenKind::kStar)) {
      core.select_star = true;
    } else {
      while (true) {
        Result<SelectItem> item = ParseSelectItem();
        if (!item.ok()) return item.status();
        core.items.push_back(item.value());
        if (!Match(TokenKind::kComma)) break;
      }
    }

    status = Expect(TokenKind::kFrom);
    if (!status.ok()) return status;
    while (true) {
      Result<FromItem> item = ParseFromItem();
      if (!item.ok()) return item.status();
      core.from.push_back(item.value());
      if (!Match(TokenKind::kComma)) break;
    }

    if (Match(TokenKind::kWhere)) {
      Result<ConditionPtr> where = ParseCondition();
      if (!where.ok()) return where.status();
      core.where = where.value();
    }

    if (Match(TokenKind::kGroup)) {
      status = Expect(TokenKind::kBy);
      if (!status.ok()) return status;
      while (true) {
        Result<Operand> column = ParseOperand();
        if (!column.ok()) return column.status();
        if (!column.value().is_column()) {
          return Error("GROUP BY expects column references");
        }
        core.group_by.push_back(column.value());
        if (!Match(TokenKind::kComma)) break;
      }
    }
    return Statement::MakeSelect(std::move(core));
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    switch (Peek().kind) {
      case TokenKind::kCount:
      case TokenKind::kSum:
      case TokenKind::kMin:
      case TokenKind::kMax:
      case TokenKind::kAvg: {
        TokenKind fn = Advance().kind;
        Status status = Expect(TokenKind::kLParen);
        if (!status.ok()) return status;
        if (fn == TokenKind::kCount && Match(TokenKind::kStar)) {
          item.agg = AggregateFn::kCountStar;
        } else {
          Result<Operand> operand = ParseOperand();
          if (!operand.ok()) return operand.status();
          if (!operand.value().is_column()) {
            return Error("aggregate argument must be a column");
          }
          item.operand = operand.value();
          switch (fn) {
            case TokenKind::kCount: item.agg = AggregateFn::kCount; break;
            case TokenKind::kSum: item.agg = AggregateFn::kSum; break;
            case TokenKind::kMin: item.agg = AggregateFn::kMin; break;
            case TokenKind::kMax: item.agg = AggregateFn::kMax; break;
            case TokenKind::kAvg: item.agg = AggregateFn::kAvg; break;
            default: break;
          }
        }
        status = Expect(TokenKind::kRParen);
        if (!status.ok()) return status;
        break;
      }
      default: {
        Result<Operand> operand = ParseOperand();
        if (!operand.ok()) return operand.status();
        item.operand = operand.value();
        break;
      }
    }
    // Optional [AS] alias.
    if (Match(TokenKind::kAs)) {
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected alias name after AS");
      }
      item.alias = Advance().text;
    } else if (Peek().kind == TokenKind::kIdentifier) {
      item.alias = Advance().text;
    }
    return item;
  }

  Result<FromItem> ParseFromItem() {
    FromItem item;
    if (Match(TokenKind::kLParen)) {
      NestingGuard level(&depth_);
      if (Status deep = level.status(); !deep.ok()) return deep;
      Result<StatementPtr> derived = ParseSetExpression();
      if (!derived.ok()) return derived.status();
      Status status = Expect(TokenKind::kRParen);
      if (!status.ok()) return status;
      item.derived = derived.value();
      Match(TokenKind::kAs);
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("derived table requires an alias");
      }
      item.alias = Advance().text;
      return item;
    }
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error(StrCat("expected table name, found ",
                          TokenKindName(Peek().kind)));
    }
    item.table = Advance().text;
    item.alias = item.table;
    if (Match(TokenKind::kAs)) {
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected alias name after AS");
      }
      item.alias = Advance().text;
    } else if (Peek().kind == TokenKind::kIdentifier) {
      item.alias = Advance().text;
    }
    return item;
  }

  // or_cond := and_cond (OR and_cond)*
  Result<ConditionPtr> ParseCondition() {
    Result<ConditionPtr> left = ParseAndCondition();
    if (!left.ok()) return left;
    std::vector<ConditionPtr> parts = {left.value()};
    while (Match(TokenKind::kOr)) {
      Result<ConditionPtr> next = ParseAndCondition();
      if (!next.ok()) return next;
      parts.push_back(next.value());
    }
    if (parts.size() == 1) return parts[0];
    return Condition::Or(std::move(parts));
  }

  Result<ConditionPtr> ParseAndCondition() {
    Result<ConditionPtr> left = ParseNotCondition();
    if (!left.ok()) return left;
    std::vector<ConditionPtr> parts = {left.value()};
    while (Match(TokenKind::kAnd)) {
      Result<ConditionPtr> next = ParseNotCondition();
      if (!next.ok()) return next;
      parts.push_back(next.value());
    }
    if (parts.size() == 1) return parts[0];
    return Condition::And(std::move(parts));
  }

  Result<ConditionPtr> ParseNotCondition() {
    if (Match(TokenKind::kNot)) {
      NestingGuard level(&depth_);
      if (Status deep = level.status(); !deep.ok()) return deep;
      Result<ConditionPtr> inner = ParseNotCondition();
      if (!inner.ok()) return inner;
      return Condition::Not(inner.value());
    }
    if (Peek().kind == TokenKind::kLParen) {
      Advance();
      NestingGuard level(&depth_);
      if (Status deep = level.status(); !deep.ok()) return deep;
      Result<ConditionPtr> inner = ParseCondition();
      if (!inner.ok()) return inner;
      Status status = Expect(TokenKind::kRParen);
      if (!status.ok()) return status;
      return inner;
    }
    return ParseComparison();
  }

  Result<ConditionPtr> ParseComparison() {
    Result<Operand> lhs = ParseOperand();
    if (!lhs.ok()) return lhs.status();
    CompareOp op;
    switch (Peek().kind) {
      case TokenKind::kEq: op = CompareOp::kEq; break;
      case TokenKind::kNeq: op = CompareOp::kNeq; break;
      case TokenKind::kLt: op = CompareOp::kLt; break;
      case TokenKind::kLe: op = CompareOp::kLe; break;
      case TokenKind::kGt: op = CompareOp::kGt; break;
      case TokenKind::kGe: op = CompareOp::kGe; break;
      default:
        return Error(StrCat("expected comparison operator, found ",
                            TokenKindName(Peek().kind)));
    }
    Advance();
    Result<Operand> rhs = ParseOperand();
    if (!rhs.ok()) return rhs.status();
    return Condition::Compare(op, lhs.value(), rhs.value());
  }

  Result<Operand> ParseOperand() {
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kString:
        Advance();
        return Operand::Literal(token.text);
      case TokenKind::kNumber:
        Advance();
        return Operand::Literal(token.text);
      case TokenKind::kIdentifier: {
        std::string first = Advance().text;
        if (Match(TokenKind::kDot)) {
          if (Peek().kind != TokenKind::kIdentifier) {
            return Error("expected column name after '.'");
          }
          return Operand::Column(first, Advance().text);
        }
        return Operand::Column("", std::move(first));
      }
      default:
        return Error(StrCat("expected column or literal, found ",
                            TokenKindName(token.kind)));
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

}  // namespace

Result<StatementPtr> Parse(std::string_view text) {
  Result<std::vector<Token>> tokens = Lex(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.ParseStatement();
}

}  // namespace sql
}  // namespace opcqa
