// Column-named relations for the execution engine.
//
// The repair core works on Database (sets of facts); the SQL executor
// works on Relation (named columns, vector of rows) because SQL and the
// Section 5 scheme are about *query plans*: Q versus Q[R ↦ R − R_del].
// Rows use the same interned ConstId values as facts.

#ifndef OPCQA_ENGINE_RELATION_H_
#define OPCQA_ENGINE_RELATION_H_

#include <string>
#include <vector>

#include "logic/query.h"
#include "relational/database.h"

namespace opcqa {
namespace engine {

using Row = Tuple;

class Relation {
 public:
  Relation() = default;
  Relation(std::string name, std::vector<std::string> columns)
      : name_(std::move(name)), columns_(std::move(columns)) {}

  const std::string& name() const { return name_; }
  const std::vector<std::string>& columns() const { return columns_; }
  size_t arity() const { return columns_.size(); }
  const std::vector<Row>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Appends a row; CHECK-fails on arity mismatch.
  void Add(Row row);

  /// Index of a column by name, or npos.
  static constexpr size_t kNotFound = static_cast<size_t>(-1);
  size_t ColumnIndex(const std::string& column) const;

  /// Sorts rows and removes duplicates (set semantics normalization).
  void Normalize();

  /// Loads all facts of one relation symbol of a database, naming columns
  /// c0, c1, ... unless `columns` is given.
  static Relation FromDatabase(const Database& db, PredId pred,
                               std::vector<std::string> columns = {});

  std::string ToString() const;

 private:
  std::string name_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

}  // namespace engine
}  // namespace opcqa

#endif  // OPCQA_ENGINE_RELATION_H_
