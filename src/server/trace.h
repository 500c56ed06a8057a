// Serving traces: workload-spec driven request generation, a text wire
// format, serial replay baselines, and canonical response rendering.
//
// A trace is a flat request list over a gen/workloads.h instance. The
// same trace can run three ways —
//   * batched on an OcqaServer,
//   * serially on one private-cache session per tenant,
//   * serially on a fresh session per request (the pre-server baseline:
//     every caller pays its own cold cache)
// — and for kExact requests the rendered responses must match
// byte-for-byte: per-tenant timelines are identical, and caches change
// speed, never answers. RenderResponses + a string compare is therefore
// the end-to-end correctness check of the serving layer (tests/ and the
// CLI --serve-trace mode both use it).

#ifndef OPCQA_SERVER_TRACE_H_
#define OPCQA_SERVER_TRACE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/ocqa_session.h"
#include "gen/workloads.h"
#include "repair/chain_generator.h"
#include "server/request.h"

namespace opcqa {
namespace server {

/// Workload shape of a generated trace (all draws seeded).
struct TraceSpec {
  size_t tenants = 4;
  size_t requests = 64;
  /// Fraction of requests that mutate (alternating insert/erase of
  /// per-tenant spare facts, so erases really erase).
  double write_fraction = 0.05;
  /// Of the reads: fraction planned through CertainAnswers and fraction
  /// running the anytime top-k search (the rest split between exact OCA
  /// and counting semantics).
  double certain_fraction = 0.2;
  double topk_fraction = 0.05;
  /// Root skew: probability a read uses the hot generator
  /// ("uniform-deletions") instead of the cold one ("uniform"). High
  /// skew means most reads share one chain root per tenant — the
  /// batching sweet spot.
  double hot_root_fraction = 0.8;
  /// Per-request chain-state budget stamped on every read (0 = none).
  size_t deadline_states = 0;
  ExecMode mode = ExecMode::kExact;
  uint64_t seed = 1;
};

/// Generates `spec.requests` requests over `workload` (ids 0..n-1 in
/// submission order). Queries are templates over the key-violation
/// relation R(k,v).
std::vector<Request> GenerateTrace(const gen::Workload& workload,
                                   const TraceSpec& spec);

/// One request per line:
///   <tenant> <kind> <mode> <generator> <deadline> <query|fact|k>
/// '#' starts a comment. FormatTrace(ParseTrace(t)) round-trips.
std::string FormatTrace(const std::vector<Request>& requests);
Result<std::vector<Request>> ParseTrace(const Schema& schema,
                                        std::string_view text);

/// Canonical rendering for byte-for-byte diffs: responses sorted by
/// request id; execution-strategy-dependent fields (Response::path) are
/// deliberately excluded.
std::string RenderResponses(std::vector<Response> responses);

enum class ReplayMode {
  /// One long-lived session (private cache) per tenant — the serial
  /// shared-session baseline and the byte-identity reference.
  kSessionPerTenant,
  /// A fresh session per request — the pre-server status quo the
  /// ISSUE's ≥3x target is measured against: every request pays its own
  /// cold cache. Mutations persist in a per-tenant database between
  /// requests.
  kSessionPerRequest,
};

/// Request::generator names → generators.
using GeneratorRegistry =
    std::map<std::string, std::shared_ptr<const ChainGenerator>>;

/// "uniform" and "uniform-deletions", the generators an OcqaServer
/// pre-registers.
const GeneratorRegistry& BuiltinGenerators();

/// Executes the trace serially in submission order. `session_options`
/// configures the created sessions (shared_cache is ignored/forced off —
/// this is the no-server baseline). Each request's budget is its own
/// deadline_states, as on the server. Request::generator is resolved in
/// `generators`; a caller that registers other generators on its server
/// passes the same ones here.
std::vector<Response> ReplaySerial(
    const gen::Workload& workload, const std::vector<Request>& requests,
    ReplayMode mode, engine::SessionOptions session_options = {},
    const GeneratorRegistry& generators = BuiltinGenerators());

}  // namespace server
}  // namespace opcqa

#endif  // OPCQA_SERVER_TRACE_H_
