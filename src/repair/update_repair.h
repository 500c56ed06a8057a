// Update-based repairing — the "Different Types of Updates" direction of
// Section 6, after Wijsen, "Database repairing using updates" (TODS 2005).
//
// Deletion repairs throw information away: a key-violating group can lose
// *all* its tuples (the paper's Example 5 even argues for that option).
// Update repairs instead keep every key and resolve a conflict by
// rewriting the non-key attributes: each violating group collapses to the
// non-key value-part of one chosen member. Queries that only depend on key
// presence become certain under update repairs while deletion repairs can
// lose them — the observable contrast bench E16 measures.
//
// Scope: primary keys only (the classical update-repair setting), as
// ExtractPrimaryKeys (constraints/primary_keys.h) recovers them from
// key-style EGDs; any other Σ is not update-repairable in this scheme.

#ifndef OPCQA_REPAIR_UPDATE_REPAIR_H_
#define OPCQA_REPAIR_UPDATE_REPAIR_H_

#include <map>
#include <vector>

#include "constraints/primary_keys.h"
#include "logic/query.h"
#include "util/random.h"
#include "util/status.h"

namespace opcqa {

struct UpdateRepairResult {
  Database db;
  /// Number of facts whose value-part was rewritten.
  size_t updates = 0;
  /// Number of violating groups touched.
  size_t groups_resolved = 0;
};

/// Draws one update repair: every violating group collapses to the value
/// part of a uniformly chosen member (trust weights optional: a member is
/// chosen proportionally to `trust`, default weight 1). The result always
/// satisfies the key constraints and contains exactly one fact per key of
/// the original database — no key is ever lost.
UpdateRepairResult SampleUpdateRepair(
    const Database& db, const std::vector<PrimaryKey>& keys, Rng* rng,
    const std::map<Fact, double>& trust = {});

/// Frequency estimates over `runs` sampled update repairs (the Section 5
/// loop, with updates instead of deletions).
struct UpdateOcaResult {
  std::map<Tuple, double> frequency;
  size_t runs = 0;
  double mean_updates = 0;

  double Frequency(const Tuple& tuple) const;
};

UpdateOcaResult EstimateUpdateOca(const Database& db,
                                  const std::vector<PrimaryKey>& keys,
                                  const Query& query, size_t runs,
                                  uint64_t seed,
                                  const std::map<Fact, double>& trust = {});

}  // namespace opcqa

#endif  // OPCQA_REPAIR_UPDATE_REPAIR_H_
