// Canonical (process-independent) serialization of repair-space cache
// roots — the byte format of the disk tier under RepairSpaceCache.
//
// FactIds are process-local: they are shard-tagged dense indices handed
// out by the process-global FactStore in intern order, and the hash the
// in-memory transposition table keys on (Database::Hash) is a function of
// those ids. A snapshot that wrote raw ids would be meaningless to the
// next process. The canonical format therefore encodes *no id and no
// hash at all*:
//
//   * the chain-root database is rendered symbolically (predicate name +
//     rendered constant args, the deterministic Database::ToString order)
//     and doubles as the verification payload for the root fingerprint;
//   * every removed-fact set — the entry verification keys and the
//     per-repair shares of repair/memo.h — is written as sorted indices
//     into the root's value-ordered fact list, which is the same list in
//     every process that holds an equal database;
//   * Rational masses are written as exact decimal "num/den" strings.
//
// The loader re-interns everything against the *live* process — facts
// resolve through the live sharded FactStore via the live database — and
// recomputes the StateKeys from live hashes, so a restored table is
// indistinguishable from one built by walking the chain in this process.
//
// ## Framing, versioning, checksums
//
// A snapshot is a fixed header (magic + format version) followed by
// sections, each with a length and a CRC-32 over its payload. Loading
// verifies the magic, the version, every section CRC and then every
// identity component *for real* (string equality against the live
// rendering, never hash equality); any mismatch — corruption, truncation,
// a format bump, an innocent fingerprint collision — makes DecodeSnapshot
// return an error status so callers fall back to cold computation. Decode
// never aborts the process on malformed input. (CRC-32 detects accidental
// corruption; the format is not authenticated against deliberate
// tampering — point snapshot_dir at a trusted location.)
//
// ## Version
//
// This build reads and writes format v3 only — varint integers,
// gap-coded removed-index sets, and a streaming string dictionary over
// the mass strings. Any other version (the retired v1 and v2 included) is
// rejected, which a caller treats as a cache miss (cold compute). A root
// is one base snapshot: every spill rewrites it whole. The normative
// byte-level spec lives in docs/SNAPSHOT_FORMAT.md; keep that document in
// lockstep with this file.

#ifndef OPCQA_STORAGE_CANONICAL_H_
#define OPCQA_STORAGE_CANONICAL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "repair/memo.h"
#include "util/status.h"

namespace opcqa {
namespace storage {

/// The four verified components of a cache root's identity (see
/// repair/repair_cache.h): database content, constraint set, generator
/// parameterization, pruning flag — all rendered, never hashed.
struct SnapshotIdentity {
  std::string db_text;             // Database::ToString() of the chain root
  std::string constraints_digest;  // RenderConstraints(schema, Σ)
  std::string generator_identity;  // ChainGenerator::cache_identity()
  bool prune = false;
};

/// Deterministic rendering of Σ (one constraint per line). The single
/// definition shared by the in-memory root fingerprint and the snapshot
/// identity, so both tiers verify the same bytes.
std::string RenderConstraints(const Schema& schema,
                              const ConstraintSet& constraints);

/// 64-bit FNV-1a over the rendered identity components. Stable across
/// processes and builds (unlike std::hash), so it can name snapshot files.
/// Collisions are harmless: the loader verifies every component for real.
uint64_t StableFingerprint(const SnapshotIdentity& identity);

/// The on-disk format version: what EncodeSnapshot writes and the only
/// one DecodeSnapshot accepts.
inline constexpr uint32_t kSnapshotFormatVersion = 3;

/// Serializes the table's current entries (a point-in-time view; safe
/// while other threads keep inserting) into canonical snapshot bytes in
/// the current format version. Entries are written sorted by removed
/// set, and each entry's shares by removed set (docs/SNAPSHOT_FORMAT.md),
/// so tables holding equal entries encode to equal bytes whatever order
/// they were inserted in. `root_db` must be the chain-root database the
/// table memoizes under — every stored removed id must resolve in it.
std::string EncodeSnapshot(const SnapshotIdentity& identity,
                           const Database& root_db,
                           const TranspositionTable& table);

/// Rebuilds a TranspositionTable from snapshot bytes against the live
/// process: verifies framing, CRCs and every identity component against
/// `expected` (whose fields must be rendered from the live root), then
/// re-interns each entry and recomputes its StateKey from live hashes.
/// The returned table has the given budgets and the restored entries;
/// its counters start fresh. Any validation failure returns a status —
/// callers treat it as a cache miss, never an abort.
Result<std::shared_ptr<TranspositionTable>> DecodeSnapshot(
    const std::string& bytes, const SnapshotIdentity& expected,
    const Database& live_root, size_t max_entries, size_t max_bytes);

}  // namespace storage
}  // namespace opcqa

#endif  // OPCQA_STORAGE_CANONICAL_H_
