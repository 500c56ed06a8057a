// Field tables: every stats counter is declared once. A stats struct
// (MemoStats, DiskTierStats, PlannerStats, ServerStats) is an aggregate
// of uint64_t fields carrying its own table: a `kPrefix`, a constexpr
// `Fields()` with one `{"name", &S::name, kCounter or kGauge}` row per
// field, and, when it embeds other tabled structs, a `Nested()` tuple
// of them. The atomic block, delta, sum and export below are
// derived from the table; `static_assert(obs::CoversAllFields<S>())`
// after the struct rejects a field without a row.

#ifndef OPCQA_OBS_FIELD_TABLE_H_
#define OPCQA_OBS_FIELD_TABLE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "obs/metrics.h"

namespace opcqa {
namespace obs {

enum class FieldKind { kCounter, kGauge };

/// One table row: the field's name under its struct's prefix, the
/// field, and whether it is a monotone counter or a point-in-time gauge.
template <typename S>
struct Field {
  std::string_view name;
  uint64_t S::*member;
  FieldKind kind;
};

/// True when S::Fields() names every field of S exactly once: rows are
/// pairwise distinct in name and field, and the rows plus the nested
/// structs account for all of sizeof(S). Every row is a uint64_t, so a
/// field added without a row grows sizeof(S) past that sum.
template <typename S>
constexpr bool CoversAllFields() {
  constexpr auto fields = S::Fields();
  size_t bytes = fields.size() * sizeof(uint64_t);
  if constexpr (requires { S::Nested(); }) {
    std::apply([&](auto... nested) { ((bytes += sizeof(S{}.*nested)), ...); },
               S::Nested());
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    for (size_t j = i + 1; j < fields.size(); ++j) {
      if (fields[i].name == fields[j].name ||
          fields[i].member == fields[j].member) {
        return false;
      }
    }
  }
  return bytes == sizeof(S);
}

/// Producer-side block: one relaxed atomic per row of S::Fields(). The
/// field is a template argument, so its slot is a compile-time constant
/// and Add<&S::hits>() is the same single fetch_add a named std::atomic
/// member compiles to. Nested structs are not part of the block.
template <typename S>
class AtomicStats {
 public:
  template <uint64_t S::*M>
  void Add(uint64_t n = 1) {
    slots_[Index<M>()].fetch_add(n, std::memory_order_relaxed);
  }
  /// For gauges that track a size (entries, bytes) as it shrinks.
  template <uint64_t S::*M>
  void Sub(uint64_t n = 1) {
    slots_[Index<M>()].fetch_sub(n, std::memory_order_relaxed);
  }

  /// Every row, read into a fresh S (nested structs left at default).
  S Load() const {
    S out;
    for (size_t i = 0; i < kFields.size(); ++i) {
      out.*kFields[i].member = slots_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  static constexpr auto kFields = S::Fields();

  template <uint64_t S::*M>
  static constexpr size_t Index() {
    constexpr size_t index = [] {
      size_t i = 0;
      while (i < kFields.size() && kFields[i].member != M) ++i;
      return i;
    }();
    static_assert(index < kFields.size(), "field has no row in Fields()");
    return index;
  }

  std::atomic<uint64_t> slots_[kFields.size()] = {};
};

/// What accrued since `earlier`: counters diffed, gauges kept at `now`.
template <typename S>
S Delta(const S& now, const S& earlier) {
  S out = now;
  for (const Field<S>& field : S::Fields()) {
    if (field.kind == FieldKind::kCounter) {
      out.*field.member -= earlier.*field.member;
    }
  }
  return out;
}

/// Row-wise sum over S::Fields() (nested structs are left as in `a`).
template <typename S>
S Sum(S a, const S& b) {
  for (const Field<S>& field : S::Fields()) a.*field.member += b.*field.member;
  return a;
}

/// The counter rows alone, gauges zeroed — what a dropped table
/// contributes to a running total that must stay monotone.
template <typename S>
S CountersOnly(S stats) {
  for (const Field<S>& field : S::Fields()) {
    if (field.kind == FieldKind::kGauge) stats.*field.member = 0;
  }
  return stats;
}

/// Writes every row as "<prefix>.<name>" into `out`, then every nested
/// struct under its own prefix.
template <typename S>
void Export(const S& stats, MetricsSnapshot* out) {
  for (const Field<S>& field : S::Fields()) {
    std::string name = std::string(S::kPrefix) + "." + std::string(field.name);
    uint64_t value = stats.*field.member;
    if (field.kind == FieldKind::kCounter) {
      out->counters[std::move(name)] = value;
    } else {
      out->gauges[std::move(name)] = static_cast<int64_t>(value);
    }
  }
  if constexpr (requires { S::Nested(); }) {
    std::apply([&](auto... members) { (Export(stats.*members, out), ...); },
               S::Nested());
  }
}

}  // namespace obs
}  // namespace opcqa

#endif  // OPCQA_OBS_FIELD_TABLE_H_
