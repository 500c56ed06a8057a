// Primary keys recovered from key-style EGDs — the shape shared by the
// planner's attack-graph classification (planner/attack_graph.h) and
// update repairs (repair/update_repair.h).
//
// A key-style EGD is the textbook encoding of one functional dependency
// key(R) → pos_j, as produced by sql::AppendKeyEgds or written by hand:
//
//   R(x̄_K, ȳ), R(x̄_K, z̄) → y_j = z_j
//
// with the two atoms sharing exactly the variables at the key positions
// K, all other variables pairwise distinct, and the equality taken at one
// common non-key position j.

#ifndef OPCQA_CONSTRAINTS_PRIMARY_KEYS_H_
#define OPCQA_CONSTRAINTS_PRIMARY_KEYS_H_

#include <vector>

#include "constraints/constraint.h"
#include "util/status.h"

namespace opcqa {

/// One relation's primary key: `key_positions` (sorted) determine the
/// rest of the tuple.
struct PrimaryKey {
  PredId pred = 0;
  std::vector<size_t> key_positions;
};

/// Recognizes Σ as per-relation primary keys, in relation order. Every
/// constraint must be a key-style EGD, the EGDs of one relation must agree
/// on the key, and together they must cover all its non-key positions;
/// otherwise InvalidArgument says which constraint or relation does not
/// fit. Relations no EGD constrains carry no key (and are conflict-free).
Result<std::vector<PrimaryKey>> ExtractPrimaryKeys(
    const ConstraintSet& constraints);

/// Key positions of `pred` under `keys`: all `arity` positions (the
/// trivial key) when `pred` has no primary key.
std::vector<size_t> KeyPositions(const std::vector<PrimaryKey>& keys,
                                 PredId pred, size_t arity);

}  // namespace opcqa

#endif  // OPCQA_CONSTRAINTS_PRIMARY_KEYS_H_
