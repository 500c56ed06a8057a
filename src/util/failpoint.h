// Deterministic fault injection — named failpoint sites threaded through
// every fallible layer (storage, repair cache, server, engine), compiled
// behind OPCQA_FAILPOINTS and *zero-overhead when disabled*: without the
// definition every OPCQA_FAILPOINT_* macro expands to `do {} while (0)`
// and failpoint.cc compiles to an empty translation unit, so release
// builds carry no branch, no symbol and no byte of the subsystem (the CI
// bench-smoke job asserts this with `nm` next to the pr7_serve_p95_ms
// perf gate).
//
// ## Why
//
// The operational semantics degrades gracefully by construction —
// truncated chains are sound anytime lower bounds, a lost snapshot is
// cold compute — but the system *around* it only degrades gracefully if
// every I/O, allocation and worker failure mode actually takes the
// degradation path. Hand-crafted failure tests probe a handful of those
// paths; the failpoint registry lets tests/chaos_test.cc enumerate every
// registered site, replay the PR 7 mixed serving trace under each one
// (and under randomized combinations), and assert byte-identity or a
// counted, correctly-coded fallback — never a crash, hang or wrong
// answer.
//
// ## Model
//
// A *site* is a name compiled into product code via one of the macros
// below. Sites are inert until a *spec* is enabled for their name:
//
//   action       what a firing site does
//     error        evaluate to an Internal error Status (the enclosing
//                  function returns it — OPCQA_FAILPOINT only)
//     corrupt      deterministically flip a byte of the caller's buffer
//                  (OPCQA_FAILPOINT_CORRUPT only)
//     delay        sleep delay_ms
//     crash        throw FailpointPanic — simulates a worker crashing
//                  mid-unit (callers that own threads must contain it;
//                  server/ocqa_server.cc isolates it per unit)
//
//   trigger      which hits fire
//     probability  each eligible hit fires with probability p, drawn from
//                  a per-site RNG stream seeded by (global seed ⊕
//                  FNV(site)) — deterministic for a fixed hit order
//     nth          only hit number `nth` (1-based) is eligible
//     max_fires    the site disarms after this many fires (count trigger;
//                  1 models a transient error that a retry survives)
//
// ## Scripting
//
// Tests use the RAII guard:
//
//   FailpointScope fp("storage.snapshot_store.write",
//                     FailpointSpec{FailpointAction::kError});
//
// Processes (the CLI, benches) use the OPCQA_FAILPOINTS environment
// variable, parsed on first registry use:
//
//   OPCQA_FAILPOINTS='repair_cache.spill=error,p=0.1;server.unit=crash,nth=3'
//
// Spec grammar: site=action[,p=<float>][,nth=<n>][,count=<n>][,delay=<ms>]
// with ';' separating sites.

#ifndef OPCQA_UTIL_FAILPOINT_H_
#define OPCQA_UTIL_FAILPOINT_H_

#ifdef OPCQA_FAILPOINTS

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace opcqa {

enum class FailpointAction { kError, kCorrupt, kDelay, kCrash };

/// Thrown by kCrash sites: a simulated worker panic. Derived from
/// std::runtime_error so generic per-unit isolation (catch
/// std::exception) contains it like any real defect would be.
class FailpointPanic : public std::runtime_error {
 public:
  explicit FailpointPanic(const std::string& site)
      : std::runtime_error("failpoint panic at " + site) {}
};

struct FailpointSpec {
  FailpointAction action = FailpointAction::kError;
  /// Chance an eligible hit fires, drawn from the site's seeded stream.
  double probability = 1.0;
  /// Disarm after this many fires (UINT64_MAX = never).
  uint64_t max_fires = UINT64_MAX;
  /// When nonzero, only the nth hit (1-based) of the site is eligible.
  uint64_t nth = 0;
  /// Sleep for kDelay, in milliseconds.
  uint64_t delay_ms = 0;
};

struct FailpointStats {
  uint64_t hits = 0;   // times an enabled site was evaluated
  uint64_t fires = 0;  // times it actually triggered its action
};

/// The canonical list of compiled-in sites — tests/chaos_test.cc sweeps
/// it, README.md documents it. Keep in sync with the OPCQA_FAILPOINT_*
/// macros in src/ (chaos_test's per-site sweep fails on a listed name
/// whose site no longer fires).
inline constexpr const char* kFailpointSites[] = {
    "storage.snapshot_store.write",    // error|delay: temp-file write/fsync
    "storage.snapshot_store.rename",   // error: publish rename
    "storage.snapshot_store.read",     // error: Get() stream read
    "storage.snapshot_store.corrupt",  // corrupt: Get() returned bytes
    "repair_cache.spill",              // error|delay: spill task, pre-Put
    "repair_cache.restore",            // error|delay: restore, pre-Get
    "server.unit",                     // crash|delay: read member, pre-exec
    "engine.session.enumerate",        // crash|delay: chain walk entry
};

class FailpointRegistry {
 public:
  /// The process-global registry. First use parses the OPCQA_FAILPOINTS
  /// environment variable (malformed specs are logged and ignored — a
  /// fault injector must not become a fault).
  static FailpointRegistry& Global();

  /// Arms `site` with `spec`, replacing any existing spec and resetting
  /// the site's counters and RNG stream.
  void Enable(const std::string& site, FailpointSpec spec);
  void Disable(const std::string& site);
  void DisableAll();

  /// Reseeds every site stream (and resets counters) — chaos sweeps call
  /// this per iteration so runs are reproducible from (seed, spec set).
  void SetSeed(uint64_t seed);

  /// Parses the environment grammar above; enables every site it names.
  Status EnableFromSpec(std::string_view spec);

  FailpointStats StatsFor(const std::string& site) const;
  uint64_t TotalFires() const;

  /// True when any site is armed — the macros' fast path is one relaxed
  /// atomic load, so a failpoint build with nothing enabled stays within
  /// noise of the stock build.
  bool Armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Evaluates one hit of `site`: nullopt when the site is disabled or
  /// its trigger does not fire. kDelay sleeps internally and still
  /// returns the action (for counting by the caller-side helpers).
  std::optional<FailpointAction> Hit(const char* site);

  /// Deterministic byte position/value for a kCorrupt fire at `site`,
  /// drawn from the same per-site stream as the trigger.
  void CorruptionDraw(const char* site, uint64_t* position_seed,
                      uint8_t* xor_byte);

 private:
  struct Site {
    FailpointSpec spec;
    uint64_t rng_state = 0;  // SplitMix64 stream; see failpoint.cc
    FailpointStats stats;
  };

  FailpointRegistry();
  uint64_t NextDraw(Site& site);

  mutable std::mutex mutex_;
  std::map<std::string, Site> sites_;
  uint64_t seed_ = 0x5EEDF417;
  std::atomic<bool> armed_{false};
};

/// RAII test guard: arms `site` on construction, disarms it on
/// destruction. Scopes may nest over distinct sites; re-arming the same
/// site inside an open scope leaves the inner spec until the outer guard
/// tears it down.
class FailpointScope {
 public:
  FailpointScope(std::string site, FailpointSpec spec)
      : site_(std::move(site)) {
    FailpointRegistry::Global().Enable(site_, spec);
  }
  ~FailpointScope() { FailpointRegistry::Global().Disable(site_); }

  FailpointScope(const FailpointScope&) = delete;
  FailpointScope& operator=(const FailpointScope&) = delete;

 private:
  std::string site_;
};

namespace internal {

/// kError → error Status; kDelay → sleep, OK; kCrash → throw; kCorrupt
/// is meaningless without a buffer and is ignored.
Status FailpointStatusHit(const char* site);
/// Like FailpointStatusHit but for sites in non-Status code paths:
/// kError is ignored (nothing to return through), kDelay/kCrash apply.
void FailpointSideEffectHit(const char* site);
/// kCorrupt → XOR one deterministic byte of *bytes (no-op on empty);
/// kDelay/kCrash also apply, kError is ignored.
void FailpointCorruptHit(const char* site, std::string* bytes);

}  // namespace internal
}  // namespace opcqa

/// Site in a function returning Status (or Result<T>): a firing kError
/// spec makes the function return Internal("failpoint fired: <site>").
#define OPCQA_FAILPOINT(site)                                            \
  do {                                                                   \
    if (::opcqa::FailpointRegistry::Global().Armed()) {                  \
      ::opcqa::Status _opcqa_fp_status =                                 \
          ::opcqa::internal::FailpointStatusHit(site);                   \
      if (!_opcqa_fp_status.ok()) return _opcqa_fp_status;               \
    }                                                                    \
  } while (0)

/// Site in any code path: delay/crash actions only (nothing to return).
#define OPCQA_FAILPOINT_HIT(site)                                        \
  do {                                                                   \
    if (::opcqa::FailpointRegistry::Global().Armed()) {                  \
      ::opcqa::internal::FailpointSideEffectHit(site);                   \
    }                                                                    \
  } while (0)

/// Site over a byte buffer: a firing kCorrupt spec flips one byte of
/// `*buffer` (std::string*), deterministically per (seed, site, hit).
#define OPCQA_FAILPOINT_CORRUPT(site, buffer)                            \
  do {                                                                   \
    if (::opcqa::FailpointRegistry::Global().Armed()) {                  \
      ::opcqa::internal::FailpointCorruptHit(site, buffer);              \
    }                                                                    \
  } while (0)

#else  // !OPCQA_FAILPOINTS

// Disabled build: the sites vanish. No registry, no atomic load, no
// symbols — `nm libopcqa.a | grep -i failpoint` finds nothing (asserted
// in CI bench-smoke).
#define OPCQA_FAILPOINT(site) \
  do {                        \
  } while (0)
#define OPCQA_FAILPOINT_HIT(site) \
  do {                            \
  } while (0)
#define OPCQA_FAILPOINT_CORRUPT(site, buffer) \
  do {                                        \
  } while (0)

#endif  // OPCQA_FAILPOINTS

#endif  // OPCQA_UTIL_FAILPOINT_H_
