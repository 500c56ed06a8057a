// Seeded inputs of the benchmark workloads.
//
// Everything the engine sees is generated here from the run's --seed:
// files for the CLI workloads, a database plus a request list for the
// server. The same seed gives byte-identical inputs; another seed gives a
// different family of the same shape, so a claim can be re-checked on a
// seed nobody tuned against.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gen/workloads.h"
#include "server/request.h"

namespace perfbench {

/// The 8-query list of the e5 persistent-cache bench (PersistQueries),
/// answered in order by every CLI workload.
const std::vector<std::string>& QueryTexts();

/// One database of the CLI family, as the three files opcqa_cli reads.
struct CliMember {
  std::string schema;
  std::string db;
  std::string constraints;
};

/// `count` key-violation databases over R(k,v), all of one shape: 8 keys,
/// of which 6 (drawn) have two conflicting values — 7 pairs overflow the
/// default max_states — and 2 are clean. Which keys conflict (and so
/// what the k0/k1 queries see) and the value constants vary.
std::vector<CliMember> MakeCliFamily(uint64_t seed, size_t count);

/// The serve_mixed inputs: a database of the e18 size (5 keys, 4 of them
/// with two conflicting values) and `requests` requests of the mixed
/// server::GenerateTrace mix (8 tenants, 10% writes, 85% hot root, 20%
/// certain, 5% top-k). Of several seeded traces, the one with the median
/// number of distinct chain roots its reads touch is kept, so seeds vary
/// the requests but hardly how many cold walks they cost.
struct ServeInputs {
  opcqa::gen::Workload workload;
  std::string db_text;
  std::vector<opcqa::server::Request> trace;
};
ServeInputs MakeServeInputs(uint64_t seed, size_t requests);

/// Canonical text of everything the engine receives, for the
/// determinism check.
std::string FormatCliFamily(const std::vector<CliMember>& family);
std::string FormatServeInputs(const ServeInputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
