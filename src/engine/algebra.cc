#include "engine/algebra.h"

#include <set>
#include <unordered_map>

#include "util/logging.h"
#include "util/string_util.h"

namespace opcqa {
namespace engine {

Relation Select(const Relation& input,
                const std::function<bool(const Row&)>& predicate) {
  Relation out(input.name(), input.columns());
  for (const Row& row : input.rows()) {
    if (predicate(row)) out.Add(row);
  }
  return out;
}

Relation Rename(const Relation& input, std::vector<std::string> columns) {
  OPCQA_CHECK_EQ(columns.size(), input.arity());
  Relation out(input.name(), std::move(columns));
  for (const Row& row : input.rows()) out.Add(row);
  return out;
}

Relation Union(const Relation& left, const Relation& right) {
  OPCQA_CHECK(left.columns() == right.columns())
      << "union of incompatible schemas";
  Relation out(left.name(), left.columns());
  for (const Row& row : left.rows()) out.Add(row);
  for (const Row& row : right.rows()) out.Add(row);
  out.Normalize();
  return out;
}

Relation Difference(const Relation& left, const Relation& right) {
  OPCQA_CHECK(left.columns() == right.columns())
      << "difference of incompatible schemas";
  std::set<Row> removed(right.rows().begin(), right.rows().end());
  Relation out(left.name(), left.columns());
  for (const Row& row : left.rows()) {
    if (removed.count(row) == 0) out.Add(row);
  }
  return out;
}

Relation EquiJoin(const Relation& left, const Relation& right,
                  const std::vector<std::pair<std::string, std::string>>&
                      join_columns) {
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(join_columns.size());
  for (const auto& [lname, rname] : join_columns) {
    size_t li = left.ColumnIndex(lname);
    size_t ri = right.ColumnIndex(rname);
    OPCQA_CHECK_NE(li, Relation::kNotFound)
        << "unknown join column " << lname << " in " << left.name();
    OPCQA_CHECK_NE(ri, Relation::kNotFound)
        << "unknown join column " << rname << " in " << right.name();
    pairs.emplace_back(li, ri);
  }
  std::vector<std::string> out_columns = left.columns();
  out_columns.insert(out_columns.end(), right.columns().begin(),
                     right.columns().end());
  Relation out(StrCat(left.name(), "⋈", right.name()),
               std::move(out_columns));

  struct RowVecHash {
    size_t operator()(const Row& row) const {
      size_t h = 0;
      for (ConstId c : row) {
        h ^= c + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return h;
    }
  };
  auto key_of = [&](const Row& row, bool is_left) {
    Row key;
    key.reserve(pairs.size());
    for (const auto& [li, ri] : pairs) key.push_back(row[is_left ? li : ri]);
    return key;
  };
  std::unordered_map<Row, std::vector<const Row*>, RowVecHash> index;
  for (const Row& row : right.rows()) {
    index[key_of(row, /*is_left=*/false)].push_back(&row);
  }
  for (const Row& lrow : left.rows()) {
    auto it = index.find(key_of(lrow, /*is_left=*/true));
    if (it == index.end()) continue;
    for (const Row* rrow : it->second) {
      Row combined = lrow;
      combined.insert(combined.end(), rrow->begin(), rrow->end());
      out.Add(std::move(combined));
    }
  }
  return out;
}

Relation Intersect(const Relation& left, const Relation& right) {
  OPCQA_CHECK(left.columns() == right.columns())
      << "intersection of incompatible schemas";
  std::set<Row> kept(right.rows().begin(), right.rows().end());
  Relation out(left.name(), left.columns());
  for (const Row& row : left.rows()) {
    if (kept.count(row) != 0) out.Add(row);
  }
  out.Normalize();
  return out;
}

}  // namespace engine
}  // namespace opcqa
